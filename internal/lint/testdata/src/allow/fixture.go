// Package allow seeds //maltlint:allow annotations: well-formed ones must
// suppress their finding, malformed ones must be hard errors that
// suppress nothing — a silently honored typo would disable the very check
// it names.
package allow

import "time"

// A well-formed annotation (known analyzer, `--`, non-empty reason)
// suppresses the finding on its own line and the line below.
func suppressed(ready func() bool) {
	for !ready() {
		//maltlint:allow rawsleep -- fixture: the poll cadence is the point
		time.Sleep(time.Millisecond)
	}
}

// An unknown analyzer name is a hard error and the sleep still reports.
func unknownName(ready func() bool) {
	for !ready() {
		//maltlint:allow rawsheep -- typo in the name // want `unknown analyzer "rawsheep"`
		time.Sleep(time.Millisecond) // want `blessed backoff site; .* not a sleep-poll`
	}
}

// A missing `-- reason` clause is a hard error and the sleep still reports.
func missingReason(ready func() bool) {
	for !ready() {
		//maltlint:allow rawsleep // want `missing the`
		time.Sleep(time.Millisecond) // want `blessed backoff site; .* not a sleep-poll`
	}
}

// Names are mandatory too: a reason with nothing to allow is an error.
func noNames(ready func() bool) {
	for !ready() {
		//maltlint:allow -- a reason with no analyzer // want `no analyzer names`
		time.Sleep(time.Millisecond) // want `blessed backoff site; .* not a sleep-poll`
	}
}
