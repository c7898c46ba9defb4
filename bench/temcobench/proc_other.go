//go:build !linux

package main

import "os/exec"

// dieWithParent is a no-op where the kernel offers no parent-death signal;
// the deferred stop and the signal handler still cover every orderly exit.
func dieWithParent(*exec.Cmd) {}
