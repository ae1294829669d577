//go:build !linux

package main

import "errors"

var errNoAffinity = errors.New("CPU affinity is not supported on this platform")

func allowedCPUs() ([]int, error) { return nil, errNoAffinity }

func pinThread(int) error { return errNoAffinity }
