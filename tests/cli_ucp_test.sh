#!/bin/sh
# End-to-end test of ucp_tool's UCP commands on a real checkpoint tree. Runs
# examples/quickstart, which trains, saves, converts and resumes, leaving a checkpoint root
# and a UCP directory under /tmp/ucp_quickstart. On that tree it checks that
#  - `inspect` lists every atom file;
#  - `validate` and `fsck` exit 0;
#  - `convert` over the committed UCP directory fails with ALREADY_EXISTS;
#  - after one payload byte of one atom file is changed, `validate` and `fsck` name that
#    file and exit non-zero, and `fsck --quarantine` renames the directory aside and leaves
#    its flight-record dossier in the renamed directory.
# The tree is removed on exit.
#
#   sh tests/cli_ucp_test.sh <path/to/quickstart> <path/to/ucp_tool>

set -u
quickstart=$1
tool=$2
work=/tmp/ucp_quickstart
ckpt=$work/ckpt
ucp=$work/ucp
out=$(mktemp -d "${TMPDIR:-/tmp}/ucp_cli_ucp.XXXXXX") || exit 1
trap 'rm -rf "$out" "$work"' EXIT

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

# Runs ucp_tool with the given arguments, output to $out/<name>.out; prints the exit code.
run() {
  name=$1
  shift
  "$tool" "$@" >"$out/$name.out" 2>&1
  echo $?
}

"$quickstart" >"$out/quickstart.out" 2>&1 ||
  fail "quickstart exited non-zero: $(tail -20 "$out/quickstart.out")"
[ -d "$ckpt/global_step30" ] || fail "quickstart left no global_step30 tag: $(ls "$ckpt")"

# inspect: one row per atom file, and the count it prints matches.
[ "$(run inspect inspect "$ucp")" -eq 0 ] || fail "inspect: $(cat "$out/inspect.out")"
files=$(ls "$ucp/atoms" | wc -l)
[ "$files" -gt 0 ] || fail "no atom files under $ucp/atoms"
grep -q "^  atoms ($files):\$" "$out/inspect.out" ||
  fail "inspect does not count $files atoms: $(cat "$out/inspect.out")"
for atom in $(ls "$ucp/atoms"); do
  grep -q "^    $atom " "$out/inspect.out" || fail "inspect does not list $atom"
done

# A clean tree validates and fscks clean.
[ "$(run validate validate "$ucp")" -eq 0 ] || fail "validate: $(cat "$out/validate.out")"
[ "$(run fsck_ucp fsck "$ucp")" -eq 0 ] || fail "fsck ucp: $(cat "$out/fsck_ucp.out")"
[ "$(run fsck_ckpt fsck "$ckpt")" -eq 0 ] || fail "fsck ckpt: $(cat "$out/fsck_ckpt.out")"

# A committed UCP directory is never converted over.
[ "$(run convert convert "$ckpt" global_step30 "$ucp")" -ne 0 ] ||
  fail "convert over a committed UCP dir succeeded"
grep -q "ALREADY_EXISTS" "$out/convert.out" || fail "convert: $(cat "$out/convert.out")"

# Change the first payload byte of one atom file. The header size, a little-endian u64 at
# offset 12, is the offset of the first member's payload.
victim=$(ls "$ucp/atoms" | head -n 1)
file=$ucp/atoms/$victim
offset=$(od -An -t u8 -j 12 -N 8 "$file" | tr -d ' ')
before=$(od -An -t u1 -j "$offset" -N 1 "$file" | tr -d ' ')
# shellcheck disable=SC2059 # the format is the octal escape of the new byte
printf "\\$(printf '%03o' $(((before + 1) % 256)))" |
  dd of="$file" bs=1 seek="$offset" count=1 conv=notrunc 2>/dev/null
after=$(od -An -t u1 -j "$offset" -N 1 "$file" | tr -d ' ')
[ "$before" != "$after" ] || fail "byte $offset of $file still reads $before"

[ "$(run validate_bad validate "$ucp")" -ne 0 ] || fail "validate passed a damaged atom"
grep -q "atoms/$victim: DATA_LOSS" "$out/validate_bad.out" ||
  fail "validate does not name atoms/$victim: $(cat "$out/validate_bad.out")"
[ "$(run fsck_bad fsck "$ucp")" -ne 0 ] || fail "fsck passed a damaged atom"
grep -q "atoms/$victim: DATA_LOSS" "$out/fsck_bad.out" ||
  fail "fsck does not name atoms/$victim: $(cat "$out/fsck_bad.out")"
[ "$(run quarantine fsck "$ucp" --quarantine)" -ne 0 ] ||
  fail "fsck --quarantine exited 0 on a damaged dir"
[ -d "$ucp.quarantined" ] || fail "fsck --quarantine left no $ucp.quarantined"
[ -f "$ucp.quarantined/atoms/$victim" ] || fail "the quarantined dir lacks atoms/$victim"
ls "$ucp.quarantined/flightrec" 2>/dev/null | grep -q "fsck\.trace\.json\$" ||
  fail "no fsck dossier under $ucp.quarantined/flightrec: $(cat "$out/quarantine.out")"
echo "ucp_tool UCP commands test passed"
