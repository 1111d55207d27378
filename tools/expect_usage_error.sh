#!/bin/sh
# Runs a command that must reject its arguments: succeeds when the command
# exits with status 2 and its stderr matches REGEX (grep -E).
#
#   tools/expect_usage_error.sh REGEX COMMAND [ARG...]
regex=$1
shift
err=$("$@" 2>&1 >/dev/null)
code=$?
if [ "$code" -ne 2 ]; then
  echo "expected exit 2, got $code from: $*" >&2
  echo "$err" >&2
  exit 1
fi
if ! printf '%s\n' "$err" | grep -E -q -e "$regex"; then
  echo "stderr of '$*' does not match '$regex':" >&2
  echo "$err" >&2
  exit 1
fi
