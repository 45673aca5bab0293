// Package daemontest boots a daemon command's main as a child process from
// its own test binary, for tests of process-level behaviour such as signal
// handling. A command's TestMain hands control to the daemon when Child
// reports the process was started that way:
//
//	func TestMain(m *testing.M) {
//		if daemontest.Child() {
//			os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
//		}
//		os.Exit(m.Run())
//	}
package daemontest

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

const childEnv = "SYMBIOS_DAEMONTEST_CHILD"

// Child reports whether this process is a daemon started by
// TermAtReady rather than a test run.
func Child() bool { return os.Getenv(childEnv) == "1" }

// TermAtReady starts the daemon with args, sends SIGTERM the moment its
// log prints "listening on", and fails t unless the daemon then logs a
// clean drain and exits 0. A daemon that installs its signal handler only
// after announcing its address dies of the signal instead.
func TermAtReady(t *testing.T, args ...string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	timer := time.AfterFunc(30*time.Second, func() { cmd.Process.Kill() })
	defer timer.Stop()

	var log bytes.Buffer
	sc := bufio.NewScanner(stderr)
	signalled := false
	for sc.Scan() {
		line := sc.Text()
		log.WriteString(line + "\n")
		if !signalled && strings.Contains(line, "listening on") {
			if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
				t.Fatal(err)
			}
			signalled = true
		}
	}
	err = cmd.Wait()
	if !signalled {
		t.Fatalf("daemon never announced its address (%v); log:\n%s", err, log.String())
	}
	if err != nil {
		t.Fatalf("SIGTERM right after \"listening on\": %v, want a drain and exit 0; log:\n%s", err, log.String())
	}
	if !strings.Contains(log.String(), "drained cleanly") {
		t.Fatalf("exit 0 without a clean drain; log:\n%s", log.String())
	}
}
