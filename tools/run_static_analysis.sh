#!/usr/bin/env bash
# Static-analysis and sanitizer driver for lbsim.
#
# Runs, in order, skipping tools that are not installed:
#   1. the lbsim lint suite (tools/lint/lbsim_lint.py) over the tree
#   2. clang-tidy over the library/tool sources (profile: .clang-tidy,
#      -warnings-as-errors=*: any finding fails the run)
#   3. cppcheck over src/
#   4. an ASan+UBSan build with LBSIM_CHECKS=full, followed by ctest
#
# Exit status is non-zero if any stage that actually ran failed. Any
# lbsim-lint finding fails the run — the tree is kept finding-clean;
# suppress intentional sites with // NOLINT(check) and a rationale.
#
# Usage:
#   tools/run_static_analysis.sh [--skip-lint] [--skip-tidy]
#                                [--skip-cppcheck] [--skip-sanitizers]
#                                [--fix] [-j N]
#
#   --fix is passed through to clang-tidy (applies fix-its from the
#   stock profile checks).

set -u

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"
run_lint=1
run_tidy=1
run_cppcheck=1
run_sanitizers=1
tidy_fix=0
failures=0

while [ $# -gt 0 ]; do
    case "$1" in
        --skip-lint) run_lint=0 ;;
        --skip-tidy) run_tidy=0 ;;
        --skip-cppcheck) run_cppcheck=0 ;;
        --skip-sanitizers) run_sanitizers=0 ;;
        --fix) tidy_fix=1 ;;
        -j) shift; jobs="$1" ;;
        *) echo "unknown option: $1" >&2; exit 2 ;;
    esac
    shift
done

note() { printf '\n=== %s ===\n' "$*"; }

# --- 1. lbsim lint suite -----------------------------------------------------
if [ "$run_lint" -eq 1 ]; then
    note "lbsim-lint"
    python3 "$repo_root/tests/lint/check_lint.py" tree || failures=1
fi

# --- 2. clang-tidy -----------------------------------------------------------
if [ "$run_tidy" -eq 1 ]; then
    if command -v clang-tidy >/dev/null 2>&1; then
        note "clang-tidy"
        tidy_build="$repo_root/build-tidy"
        tidy_args=(-warnings-as-errors='*')
        [ "$tidy_fix" -eq 1 ] && tidy_args+=(--fix)
        cmake -S "$repo_root" -B "$tidy_build" \
              -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
              -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null || failures=1
        if command -v run-clang-tidy >/dev/null 2>&1; then
            run-clang-tidy -p "$tidy_build" -j "$jobs" -quiet \
                "${tidy_args[@]}" "$repo_root/src/.*\.cpp" || failures=1
        else
            find "$repo_root/src" -name '*.cpp' -print0 |
                xargs -0 -n 1 -P "$jobs" clang-tidy -p "$tidy_build" \
                    --quiet "${tidy_args[@]}" || failures=1
        fi
    else
        note "clang-tidy not installed; skipping"
    fi
fi

# --- 3. cppcheck -------------------------------------------------------------
if [ "$run_cppcheck" -eq 1 ]; then
    if command -v cppcheck >/dev/null 2>&1; then
        note "cppcheck"
        cppcheck --enable=warning,performance,portability \
                 --inline-suppr --error-exitcode=1 \
                 --std=c++20 --language=c++ \
                 -I "$repo_root/src" \
                 --suppress=missingIncludeSystem \
                 "$repo_root/src" || failures=1
    else
        note "cppcheck not installed; skipping"
    fi
fi

# --- 4. ASan/UBSan + full checks + ctest -------------------------------------
if [ "$run_sanitizers" -eq 1 ]; then
    note "ASan+UBSan build (LBSIM_CHECKS=full)"
    san_build="$repo_root/build-asan"
    cmake -S "$repo_root" -B "$san_build" \
          -DCMAKE_BUILD_TYPE=RelWithDebInfo \
          -DLBSIM_SANITIZE="address;undefined" \
          -DLBSIM_CHECKS=full -DLBSIM_WERROR=ON >/dev/null &&
        cmake --build "$san_build" -j "$jobs" || failures=1
    if [ "$failures" -eq 0 ]; then
        note "ctest under sanitizers"
        ASAN_OPTIONS=detect_leaks=0 \
            ctest --test-dir "$san_build" --output-on-failure -j "$jobs" ||
            failures=1
    fi
fi

if [ "$failures" -ne 0 ]; then
    note "static analysis FAILED"
    exit 1
fi
note "static analysis passed"
