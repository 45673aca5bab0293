package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"

	"symbios/internal/integrity"
)

// runRecord is the provenance printed with every run: what was measured,
// on what, and how many samples stand behind each figure.
func runRecord(o *opts, r *report) map[string]any {
	return map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"traced":     o.traced,
		"commit":     commit(),
		"tree":       treeDigest(),
		"config":     integrity.Digest(configJSON),
		"go":         runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"samples":    r.samples,
		"correct":    r.correct,
		"problems":   r.problems,
	}
}

// commit is the checkout's git commit, or "none" when the working
// directory is not the top of a git checkout.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--show-toplevel", "HEAD").Output()
	wd, werr := os.Getwd()
	f := strings.Fields(string(out))
	if err != nil || werr != nil || len(f) != 2 || f[0] != wd {
		return "none"
	}
	return f[1]
}

// treeDigest hashes every Go source and module file of the program under
// test, so runs of one tree can be matched without git.
func treeDigest() string {
	h := fnv.New64a()
	for _, root := range []string{"go.mod", "cmd", "internal"} {
		_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !(strings.HasSuffix(path, ".go") || path == "go.mod") {
				return nil // unreadable entries only weaken the digest
			}
			f, err := os.Open(path)
			if err != nil {
				return nil
			}
			defer f.Close()
			io.WriteString(h, path)
			_, _ = io.Copy(h, f)
			return nil
		})
	}
	return fmt.Sprintf("fnv1a:%016x", h.Sum64())
}
