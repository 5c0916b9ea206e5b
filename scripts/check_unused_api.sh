#!/usr/bin/env bash
# Fail when src/ exports a function that nothing outside the tests runs.
#
# For every external blinkradar:: function defined in a src/ object file
# of a built tree, the function counts as used when
#   - another non-test object (src/, bench/, examples/, tools/) references
#     it (an undefined symbol in `nm`), or
#   - its own object references it (a call or address relocation that
#     survived inlining, a vtable slot), or its own source calls it by
#     name more often than it defines it (an inlined call leaves no
#     relocation), or
#   - a source file under fleetbench/ names it as a call (fleetbench builds
#     src/ in a tree of its own, so a word search stands in for `nm`).
# Anything else is listed and the script exits 1, unless the allow-list
# below names it with its reason.
#
# Usage: scripts/check_unused_api.sh [build-dir]   (default: build-release)
# The tree must be built first, e.g.
#   cmake --preset release && cmake --build build-release
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-$root/build-release}

# Qualified name (no parameter list, no ABI tag) | why it stays without an
# outside call.
allowlist() {
    cat <<'EOF'
blinkradar::reload_process_config_for_testing | seam the tests use to swap in their own process config
blinkradar::core::RollingBinVariance::evict | reference the fused variance kernel is tested against
blinkradar::fleet::FleetEngine::engine_stats | tests observe the live engine
blinkradar::fleet::FleetEngine::is_resident | tests observe the live engine
blinkradar::fleet::FleetEngine::merge_metrics | tests observe the live engine
blinkradar::fleet::FleetEngine::session_count | tests observe the live engine
blinkradar::fleet::FleetEngine::stats | tests observe the live engine
blinkradar::fleet::FleetEngine::evict | tests force an eviction to drive rehydration
blinkradar::ingest::IngestFrontend::queue_stats | tests observe the live front-end
blinkradar::ingest::IngestFrontend::stream_count | tests observe the live front-end
blinkradar::ingest::BytePipe::buffered | tests observe the pipe between producer and pump
blinkradar::obs::telemetry::SpanCollector::completed | tests observe the emitted spans
blinkradar::obs::telemetry::SpanCollector::last_record | tests observe the emitted spans
blinkradar::radar::FaultInjectorConfig::any_active | tests check every fault kind maps onto the injector
blinkradar::state::StateReader::has_section | tests round-trip every scalar of the snapshot format
blinkradar::state::StateReader::read_u16 | tests round-trip every scalar of the snapshot format
blinkradar::state::StateWriter::write_u16 | tests round-trip every scalar of the snapshot format
blinkradar::vehicle::VibrationModel::rms | tests pin the trajectory's RMS to the road spec
EOF
}

if [ ! -d "$build/src" ]; then
    echo "check_unused_api: no built tree at $build (build it first)" >&2
    exit 2
fi
for tool in nm objdump; do
    command -v "$tool" >/dev/null || {
        echo "check_unused_api: $tool not found" >&2
        exit 2
    }
done

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Non-test objects; CMake's compiler-identification objects are skipped.
find "$build" -name '*.o' -not -path '*/tests/*' \
    -not -path '*/CMakeFiles/[0-9]*' | sort >"$tmp/objects"
grep -E '/src/.*\.dir/' "$tmp/objects" >"$tmp/src_objects" || true
if [ ! -s "$tmp/src_objects" ]; then
    echo "check_unused_api: no src/ objects under $build" >&2
    exit 2
fi

strip_nm() { sed -E 's/^[0-9a-f ]+ [A-Za-z] //'; }

# Every symbol any non-test object leaves undefined, keyed by object.
while read -r obj; do
    nm -C -u "$obj" | strip_nm | sed "s|^|$obj\t|"
done <"$tmp/objects" >"$tmp/undefined"

: >"$tmp/unused"
: >"$tmp/defined_all"
while read -r obj; do
    # Source file the object was compiled from: <dir>/CMakeFiles/<t>.dir/<f>.o
    rel=${obj#"$build"/}
    src=$(echo "$rel" | sed -E 's|CMakeFiles/[^/]+\.dir/||; s|\.o$||')
    # An object whose source is gone is a leftover of an older build.
    [ -f "$root/$src" ] || continue
    nm -C -g --defined-only "$obj" | grep -E '^[0-9a-f]+ T blinkradar::' |
        strip_nm | sort -u >"$tmp/defined" || true
    [ -s "$tmp/defined" ] || continue
    {
        awk -F'\t' -v o="$obj" '$1 != o { print $2 }' "$tmp/undefined"
        objdump -r -C "$obj" | awk '$2 ~ /^R_/ { $1 = ""; $2 = ""; print }' |
            sed -E 's/^ +//; s/[-+]0x[0-9a-f]+$//'
    } | sort -u >"$tmp/referenced"
    sed "s|^|$src\t|" "$tmp/defined" >>"$tmp/defined_all"
    comm -23 "$tmp/defined" "$tmp/referenced" | sed "s|^|$src\t|" \
        >>"$tmp/unused"
done <"$tmp/src_objects"

# Regex-quote a name (operators carry metacharacters).
quote() { sed 's/[][\.*^$+?(){}|]/\\&/g'; }

status=0
count=0
while IFS=$'\t' read -r src sig; do
    qualified=${sig%%(*}
    plain=$(echo "$qualified" | sed 's/\[abi:[^]]*\]//g')
    if allowlist | sed 's/ | .*//' | grep -qxF -- "$plain"; then
        continue
    fi
    name=$(echo "${plain##*::}" | quote)
    # A call the optimiser inlined leaves no relocation: count the name's
    # calls in its own source (comments dropped) against its definitions.
    calls=$(sed 's|//.*||' "$root/$src" | { grep -oE "\b${name}\s*\(" || true; } |
        wc -l)
    defs=$(awk -F'\t' -v s="$src" -v q="$qualified(" \
        '$1 == s && index($2, q) == 1' "$tmp/defined_all" | wc -l)
    if [ "$calls" -gt "$defs" ]; then
        continue
    fi
    # fleetbench: a call by name (a constructor is named by its class),
    # for a member function in a file that also names its class.
    scope=${plain%::*}
    scope=${scope##*::}
    files=$(grep -rlE --include='*.cpp' --include='*.hpp' --include='*.h' \
        -e "\b${name}\s*[({]" "$root/fleetbench" || true)
    if [ -n "$files" ] && { [[ ! $scope =~ ^[A-Z] ]] ||
        echo "$files" | xargs grep -qw -- "$scope"; }; then
        continue
    fi
    echo "unused: $sig  [$src]"
    count=$((count + 1))
    status=1
done <"$tmp/unused"

if [ "$status" -ne 0 ]; then
    echo "check_unused_api: $count src/ function(s) have no caller outside" \
        "the tests; delete them or add them to the allow-list with a reason"
else
    echo "check_unused_api: every exported src/ function has a caller"
fi
exit "$status"
