#!/usr/bin/env bash
# Run one disklab command line and check how it ends.
#
#   bash scripts/expect.sh CODE [--lines N] [--message TEXT] [--timeout SECONDS]
#                          [--vmem KB] [--stderr FILE] -- ARG...
#
# Runs `python -m disklab ARG...` on this checkout's src, under
# `timeout SECONDS` and in a subshell with `ulimit -v KB` when given, and
# prints its stderr, which it keeps in FILE when given.  Exits 1, naming
# the expectation that failed, unless the command exits CODE, its stderr
# holds no traceback, has N lines when --lines is given and contains TEXT
# when --message is given.
set -euo pipefail

want=$1
shift
lines="" message="" limit="" vmem="" err=""
while [ "$1" != "--" ]; do
  case $1 in
    --lines) lines=$2 ;;
    --message) message=$2 ;;
    --timeout) limit=$2 ;;
    --vmem) vmem=$2 ;;
    --stderr) err=$2 ;;
    *) echo "expect.sh: unknown option $1" >&2; exit 2 ;;
  esac
  shift 2
done
shift
if [ -z "$err" ]; then
  err=$(mktemp)
  trap 'rm -f "$err"' EXIT
fi
src="$(cd "$(dirname "$0")/.." && pwd)/src"

set +e
(
  if [ -n "$vmem" ]; then ulimit -v "$vmem"; fi
  PYTHONPATH="$src${PYTHONPATH:+:$PYTHONPATH}" ${limit:+timeout "$limit"} python -m disklab "$@"
) 2> "$err"
code=$?
set -e
cat "$err"

command="$*"
fail() {
  echo "expect.sh: $1: disklab $command" >&2
  exit 1
}
if [ "$code" -ne "$want" ]; then fail "exit $code, not $want"; fi
if grep -q Traceback "$err"; then fail "a traceback"; fi
if [ -n "$lines" ] && [ "$(wc -l < "$err")" -ne "$lines" ]; then
  fail "$(wc -l < "$err") lines of stderr, not $lines"
fi
if [ -n "$message" ] && ! grep -qF -- "$message" "$err"; then fail "no line holds \"$message\""; fi
exit 0
