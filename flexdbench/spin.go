package main

import (
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"unsafe"
)

// The host-noise guard. On a virtual machine a CPU with nothing to run
// halts, and waking it waits until the hypervisor schedules it again —
// time the guest sees as steal. A closed-loop client idles the CPUs
// between requests, so every request pays that wake-up, and what it
// costs depends on other tenants' load: on a shared 2-CPU machine the
// run-to-run spread of the end-to-end times tracked the steal share,
// which swung between 0% and 25%. While the benchmark measures, a
// child process keeps one SCHED_IDLE spinner per CPU busy. The kernel
// runs a SCHED_IDLE thread only when nothing else wants the CPU and
// preempts it as soon as something does, so flexd and the client keep
// the CPUs they would have had, and no CPU halts.

// spinEnv marks the re-executed benchmark binary as the spinner child.
const spinEnv = "FLEXDBENCH_SPINNER"

// startSpinners starts the spinner child; the returned function kills
// it and waits for it to exit.
func startSpinners() (stop func(), err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), spinEnv+"=1")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}, nil
}

// spin is the spinner child's body: one busy thread per CPU, each
// demoted to SCHED_IDLE (nice 19 where that policy is refused). It
// never returns; the parent kills it.
func spin() {
	n := runtime.NumCPU()
	runtime.GOMAXPROCS(n)
	for i := 0; i < n; i++ {
		go func() {
			runtime.LockOSThread()
			const schedIdle = 5
			var param struct{ priority int32 }
			if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); e != 0 {
				_ = syscall.Setpriority(syscall.PRIO_PROCESS, 0, 19)
			}
			for {
			}
		}()
	}
	select {}
}
