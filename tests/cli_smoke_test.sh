#!/bin/sh
# End-to-end smoke test of the two shipped binaries. Starts ucp_serverd on a Unix socket
# under a fresh temporary root, checks that `ucp_tool ping` reports wire v4 and that
# `ucp_tool tags` lists 0 tags, stops the daemon with SIGTERM (it must exit 0), and checks
# that a ping after the stop fails.
#
#   sh tests/cli_smoke_test.sh <path/to/ucp_serverd> <path/to/ucp_tool>

set -u
serverd=$1
tool=$2
root=$(mktemp -d "${TMPDIR:-/tmp}/ucp_cli_smoke.XXXXXX") || exit 1
endpoint="unix:$root/d.sock"
pid=

cleanup() {
  if [ -n "$pid" ]; then
    kill -KILL "$pid" 2>/dev/null
    wait "$pid" 2>/dev/null
  fi
  rm -rf "$root"
}
trap cleanup EXIT

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

"$serverd" --root "$root" --listen "$endpoint" >"$root/serverd.log" 2>&1 &
pid=$!

# The daemon is up once a ping answers; give it at most 100 tries, 0.1 s apart.
tries=0
until "$tool" ping --store "$endpoint" >"$root/ping.out" 2>&1; do
  kill -0 "$pid" 2>/dev/null || fail "ucp_serverd exited early: $(cat "$root/serverd.log")"
  tries=$((tries + 1))
  [ "$tries" -lt 100 ] || fail "ucp_serverd did not answer a ping: $(cat "$root/ping.out")"
  sleep 0.1
done
grep -q "wire v4" "$root/ping.out" || fail "ping does not report wire v4: $(cat "$root/ping.out")"

"$tool" tags --store "$endpoint" >"$root/tags.out" 2>&1 ||
  fail "tags exited non-zero: $(cat "$root/tags.out")"
grep -q "(0 tags)" "$root/tags.out" || fail "tags on an empty root: $(cat "$root/tags.out")"

kill -TERM "$pid"
wait "$pid"
code=$?
pid=
[ "$code" -eq 0 ] || fail "ucp_serverd exited $code after SIGTERM: $(cat "$root/serverd.log")"

if "$tool" ping --store "$endpoint" >"$root/ping_after.out" 2>&1; then
  fail "ping succeeded after the daemon stopped: $(cat "$root/ping_after.out")"
fi
echo "ucp_serverd + ucp_tool smoke test passed"
