//go:build linux

package driver

import (
	"runtime"
	"syscall"
	"time"
)

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK; the syscall package
// does not name it.
const prSetTimerSlack = 29

// lockPacer pins the sender to its thread and cuts the thread's timer
// slack from the default 50 us to 1 us, so that a short nanosleep wakes
// when asked. The returned function undoes the pinning.
func lockPacer() func() {
	runtime.LockOSThread()
	// Best effort: with the default slack the sender still works, it is
	// only later, and Result.Late shows it.
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0)
	return runtime.UnlockOSThread
}

// pause blocks the sender's thread for d. The Go runtime's own sleep
// is useless here: an idle runtime waits in epoll with a millisecond
// timeout, and a yielding spin keeps the runtime from polling the
// network at all, which starves the very replies being timed.
func pause(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an early wake-up just loops again
}
