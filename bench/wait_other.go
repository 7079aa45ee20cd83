//go:build !unix

package main

import "time"

func sleep(d time.Duration) { time.Sleep(d) }
