#!/bin/sh
# expect_usage_error.sh FLAG COMMAND [ARGS...]
#
# Runs COMMAND and succeeds only if it exits with status 2 (a usage error)
# and its standard error names FLAG.
flag=$1
shift
err=$("$@" 2>&1 >/dev/null)
code=$?
printf '%s\n' "$err"
if [ "$code" -ne 2 ]; then
  echo "expected exit status 2, got $code"
  exit 1
fi
case $err in
  *"$flag"*) exit 0 ;;
esac
echo "standard error does not name $flag"
exit 1
