package main

import (
	"os"
	"testing"

	"symbios/internal/daemontest"
)

func TestMain(m *testing.M) {
	if daemontest.Child() {
		os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestSIGTERMAtReady: a SIGTERM sent the moment sosfront announces its
// address drains the relay and exits 0 — the handler is installed before
// the announcement, so there is no window in which the signal kills the
// process. The backend is never contacted.
func TestSIGTERMAtReady(t *testing.T) {
	for i := 0; i < 20; i++ {
		daemontest.TermAtReady(t, "-addr", "127.0.0.1:0", "-backends", "http://127.0.0.1:9")
	}
}
