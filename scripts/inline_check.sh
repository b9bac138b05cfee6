#!/usr/bin/env bash
# inline_check.sh — fails when a per-uop helper of the cycle loop stops
# being inlined.
#
# Usage: scripts/inline_check.sh      (from the repository root; `make lint`
#                                      runs it)
#
# The rule for the list below: a function belongs on it when the cycle loop
# runs it for (nearly) every simulated uop, at allocation, issue or
# completion, from inside a stage's loop, and its common path was written
# to fit the compiler's default inlining budget (a cost of 80), with any
# rare or class-specific work split out into a function of its own. Inlined,
# such a helper costs only its body; once it stops inlining, every uop pays
# a call, which slows the simulator without failing any test. So a change
# that pushes one of them over the budget fails here: split its new work
# out rather than taking the helper off the list.
set -euo pipefail

pkg=srlproc/internal/core
helpers=(
	'(*readyList).next'        # issue: the select scan's next entry
	'(*readyList).push'        # allocate and wake-up: a uop enters the ready list
	'(*cmplHeap).push'         # issue: a completion is scheduled
	'(*cmplHeap).pop'          # processCompletions: a completion is due
	'(*Core).wakeWaiters'      # complete: the common case, no consumer waiting
	'(*Core).leaveSched'       # issue: the scheduler entry is freed
	'(*Core).ckptIndex'        # complete: the checkpoint's count is released
	'(*Core).regFree'          # complete: the destination register is freed
	'(*Core).schedAvail'       # allocate: scheduler space
	'(*Core).regAvail'         # allocate: register space
	'(*Core).addWaiter'        # allocate: a source waits on its producer
	'(*Core).newDynUop'        # allocate: a fetched uop's record
)

if ! out=$(go build -gcflags="$pkg=-m" ./internal/core 2>&1); then
	echo "$out" >&2
	exit 1
fi
# The names of every function the compiler can inline, one a line.
inlinable=$(sed -n 's/^.*: can inline \([^ ]*\)$/\1/p' <<<"$out")
fail=0
for f in "${helpers[@]}"; do
	if ! grep -qxF "$f" <<<"$inlinable"; then
		echo "inline_check: $pkg $f is no longer inlined (go build -gcflags='$pkg=-m=2' ./internal/core shows its cost)" >&2
		fail=1
	fi
done
exit $fail
