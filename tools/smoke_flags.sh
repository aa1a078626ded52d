#!/usr/bin/env sh
# Flag-vocabulary smoke, run by ctest as smoke_cli_flags: a misspelt flag
# (--tagret) or an unknown --engine must make tcrowd_cli serve-sim and
# tcrowd_serverd exit 2 naming it, before any serving starts. A daemon
# that wrongly starts anyway is stopped by the timeout and fails the check.
#
# Usage: smoke_flags.sh <tcrowd_serverd> <tcrowd_cli> <out-dir>
set -eu

serverd=$1
cli=$2
out=$3

rm -rf "$out"
mkdir -p "$out"

world_flags="--rows=12 --cols=3 --workers=8 --policy=looping --target=3"

# expect_refusal <name> <text> <command...>: exit status 2 and <text> on
# stderr.
expect_refusal() {
  name=$1
  text=$2
  shift 2
  status=0
  timeout 60 "$@" > "$out/$name.out" 2> "$out/$name.err" || status=$?
  if [ "$status" -ne 2 ] || ! grep -q -e "$text" "$out/$name.err"; then
    echo "smoke_flags.sh: $name: want exit 2 naming '$text', got $status:" >&2
    cat "$out/$name.err" >&2
    exit 1
  fi
  echo "$name: exit 2: $(cat "$out/$name.err")"
}

# shellcheck disable=SC2086  # word-splitting the flag list is intended
expect_refusal cli_typo "--tagret" \
  "$cli" serve-sim $world_flags --engine=mv --tagret=5
# shellcheck disable=SC2086
expect_refusal cli_engine "--engine=bogus" \
  "$cli" serve-sim $world_flags --engine=bogus
expect_refusal serverd_typo "--tagret" \
  "$serverd" --listen=127.0.0.1:0 --tagret=9
expect_refusal serverd_engine "--engine=bogus" \
  "$serverd" --listen=127.0.0.1:0 --engine=bogus

echo "smoke_flags.sh: OK"
