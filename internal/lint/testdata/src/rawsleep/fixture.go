// Package rawsleep seeds sleep-in-loop sites for the rawsleep analyzer.
package rawsleep

import "time"

func pollLoop(ready func() bool) {
	for !ready() {
		time.Sleep(time.Millisecond) // want `blessed backoff site; .* not a sleep-poll`
	}
}

func rangeLoop(xs []int) {
	for range xs {
		time.Sleep(time.Nanosecond) // want `blessed backoff site; .* not a sleep-poll`
	}
}

func nestedLoop() {
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			time.Sleep(time.Microsecond) // want `blessed backoff site; .* not a sleep-poll`
		}
	}
}

func loopInClosure() func() {
	return func() {
		for {
			time.Sleep(time.Millisecond) // want `blessed backoff site; .* not a sleep-poll`
		}
	}
}

// oneShotDelay: a sleep outside any loop models a fixed delay, not a
// retry/poll policy, and is not flagged.
func oneShotDelay() {
	time.Sleep(time.Microsecond)
}

// closureInLoop: the sleep belongs to the closure (which may run once, on
// another goroutine, long after the loop); it is not a loop backoff.
func closureInLoop(run func(func())) {
	for i := 0; i < 3; i++ {
		run(func() {
			time.Sleep(time.Microsecond)
		})
	}
}

func annotatedIsSuppressed(ready func() bool) {
	for !ready() {
		time.Sleep(time.Millisecond) //maltlint:allow rawsleep -- fixture: deliberate pacing
	}
}
