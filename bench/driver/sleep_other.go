//go:build !linux

package driver

import "time"

func lockPacer() func() { return func() {} }

func pause(d time.Duration) { time.Sleep(d) }
