package main

import (
	"os/exec"
	"syscall"
)

// dieWithParent has the kernel kill the child should this process end without
// running its deferred clean-up (a panic on another goroutine, SIGKILL).
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
