package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childProcs is the GOMAXPROCS (and -workers) every system-under-test
// child runs with, so numbers name their parallelism instead of
// inheriting the host's.
const childProcs = 2

// childTimeout bounds one batch child (shears, figures, dataset).
const childTimeout = 120 * time.Second

// env locates the tree under measurement and the scratch space. All
// reads and writes stay under root; everything the benchmark creates
// lives under work.
type env struct {
	root string // repo root (holds go.mod of module repro)
	work string // scratch: <root>/.bench_build
	bin  string // built binaries: <work>/bin
	log  io.Writer
}

func newEnv(root string, log io.Writer) (*env, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("no repo to measure at %s: %w", root, err)
	}
	if !bytes.HasPrefix(mod, []byte("module repro\n")) {
		return nil, fmt.Errorf("%s/go.mod is not module repro", root)
	}
	work := filepath.Join(root, ".bench_build")
	e := &env{root: root, work: work, bin: filepath.Join(work, "bin"), log: log}
	for _, d := range []string{e.bin, filepath.Join(work, "gocache"), filepath.Join(work, "tmp")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// goEnv keeps the toolchain's cache and temp files inside the checkout.
func (e *env) goEnv() []string {
	return append(os.Environ(),
		"GOCACHE="+filepath.Join(e.work, "gocache"),
		"GOTMPDIR="+filepath.Join(e.work, "tmp"),
		"GOFLAGS=", "GOPROXY=off", "GOTOOLCHAIN=local", "CGO_ENABLED=0")
}

var sutBinaries = []string{"shears", "figures", "dataset", "atlasd"}

// buildBinaries compiles the system under test from source. The go
// build cache makes every call after the first a staleness check.
func (e *env) buildBinaries(ctx context.Context) error {
	args := []string{"build", "-o", e.bin + string(filepath.Separator)}
	for _, b := range sutBinaries {
		args = append(args, "./cmd/"+b)
	}
	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Dir = e.root
	cmd.Env = e.goEnv()
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %w\n%s", err, out)
	}
	return nil
}

func (e *env) binary(name string) string { return filepath.Join(e.bin, name) }

// tempDir makes a fresh directory under the scratch space.
func (e *env) tempDir(pattern string) (string, error) {
	base := filepath.Join(e.work, "run")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, pattern)
}

// treeSHA stamps results with the tree they measured: a SHA-256 over
// every Go source and go.mod under root, so the stamp is right in a
// checkout that is not a git repository and on a dirty tree alike.
func (e *env) treeSHA() (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(e.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != e.root && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" {
			return nil
		}
		rel, err := filepath.Rel(e.root, path)
		if err != nil {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// usage is what one child cost: CPU over its life and its peak RSS.
type usage struct {
	CPU    time.Duration
	PeakKB int64
}

func (u *usage) add(o usage) {
	u.CPU += o.CPU
	u.PeakKB = max(u.PeakKB, o.PeakKB)
}

// opUsage totals the batch children of a timed phase op by op. Its peak
// is the median over ops of each op's largest child: the runs and
// sessions repeat the same jobs, whose own peaks differ by a tenth with
// GC timing, and the largest of several draws would report that scatter.
type opUsage struct {
	cpu   time.Duration
	peaks []float64
}

func (o *opUsage) add(u usage) {
	o.cpu += u.CPU
	o.peaks = append(o.peaks, float64(u.PeakKB))
}

func (o *opUsage) total() usage {
	sort.Float64s(o.peaks)
	u := usage{CPU: o.cpu}
	if len(o.peaks) > 0 {
		u.PeakKB = int64(percentile(o.peaks, 0.5))
	}
	return u
}

// childResult is a finished batch child.
type childResult struct {
	Stdout []byte
	Wall   time.Duration
	Usage  usage
}

// launchFlag makes the bench binary act as the parent of one batch
// child. A child's ru_maxrss starts from its parent's resident set at
// the time of the fork (the kernel folds the address space the two
// still share into the child's high-water mark at exec), and the bench
// itself holds generated rounds larger than some jobs ever grow.
// Re-executed as a launcher the bench is a few MB, so the child's peak
// is its own; the launcher also takes the wall time right around the
// child. It reports on file descriptor 3.
const launchFlag = "-launch-child"

type launchReport struct {
	WallNs int64  `json:"wall_ns"`
	CPUNs  int64  `json:"cpu_ns"`
	PeakKB int64  `json:"peak_kb"`
	Err    string `json:"err,omitempty"`
}

// launchMain is main() under launchFlag: run argv to completion with
// this process's standard streams and environment, report, and exit
// non-zero if the child did.
func launchMain(argv []string) int {
	if len(argv) == 0 {
		fmt.Fprintln(os.Stderr, "bench:", launchFlag, "needs a command")
		return 2
	}
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Stdin, cmd.Stdout, cmd.Stderr = os.Stdin, os.Stdout, os.Stderr
	t0 := time.Now()
	err := cmd.Run()
	rep := launchReport{WallNs: int64(time.Since(t0))}
	if ps := cmd.ProcessState; ps != nil {
		rep.CPUNs = int64(ps.UserTime() + ps.SystemTime())
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			rep.PeakKB = int64(ru.Maxrss)
		}
	}
	if err != nil {
		rep.Err = err.Error()
	}
	if werr := json.NewEncoder(os.NewFile(3, "report")).Encode(rep); werr != nil {
		fmt.Fprintln(os.Stderr, "bench: reporting child usage:", werr)
		return 2
	}
	if err != nil {
		return 1
	}
	return 0
}

// runChild runs one system-under-test binary to completion with
// GOMAXPROCS=2, through the launcher, and reports its wall time, rusage
// CPU and peak RSS. A non-zero exit or a timeout is an error carrying
// the child's stderr.
func (e *env) runChild(ctx context.Context, name string, args ...string) (childResult, error) {
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	self, err := os.Executable()
	if err != nil {
		return childResult{}, err
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		return childResult{}, err
	}
	defer pr.Close()
	cmd := exec.CommandContext(ctx, self, append([]string{launchFlag, e.binary(name)}, args...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(childProcs))
	cmd.ExtraFiles = []*os.File{pw}
	// The launcher and the child share a process group, so a timeout
	// takes both.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	cmd.WaitDelay = 5 * time.Second
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t0 := time.Now()
	err = cmd.Start()
	pw.Close()
	if err != nil {
		return childResult{}, err
	}
	var rep launchReport
	decErr := json.NewDecoder(pr).Decode(&rep)
	err = cmd.Wait()
	res := childResult{
		Stdout: stdout.Bytes(),
		Wall:   time.Duration(rep.WallNs),
		Usage:  usage{CPU: time.Duration(rep.CPUNs), PeakKB: rep.PeakKB},
	}
	if err == nil && decErr != nil {
		err = fmt.Errorf("no usage report: %w", decErr)
	}
	if err != nil {
		if res.Wall == 0 {
			res.Wall = time.Since(t0)
		}
		return res, fmt.Errorf("%s %s: %w %s\n%s", name, strings.Join(args, " "), err, rep.Err, tail(stderr.Bytes(), 2000))
	}
	return res, nil
}

func tail(b []byte, n int) []byte {
	if len(b) > n {
		return b[len(b)-n:]
	}
	return b
}

// server is a running atlasd child.
type server struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	stderr *bytes.Buffer
	done   chan error
}

// freeAddr asks the kernel for an unused loopback port. atlasd logs the
// flag it was given, not the port it bound, so the bench picks one.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startServer launches atlasd -serve-data over dir and waits until it
// answers figure requests.
func (e *env) startServer(ctx context.Context, dir string, refresh time.Duration) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(e.binary("atlasd"),
		"-addr", addr, "-probes", strconv.Itoa(paperProbes), "-seed", strconv.FormatUint(worldSeed, 10),
		"-serve-data", dir, "-serve-refresh", refresh.String(), "-log-level", "warn")
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(childProcs))
	s := &server{cmd: cmd, base: "http://" + addr, stderr: new(bytes.Buffer), done: make(chan error, 1)}
	cmd.Stderr = s.stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	go func() { s.done <- cmd.Wait() }()

	c := newClient(time.Second)
	defer c.CloseIdleConnections()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := get(ctx, c, s.base+"/api/v1/figures/4", ""); err == nil {
			return s, nil
		}
		select {
		case werr := <-s.done:
			s.done <- werr
			return nil, fmt.Errorf("atlasd exited before serving: %v\n%s", werr, tail(s.stderr.Bytes(), 2000))
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("atlasd not serving after 30s\n%s", tail(s.stderr.Bytes(), 2000))
		}
	}
}

// stop shuts the server down (SIGINT, then SIGKILL after its drain
// timeout) and waits until the process has ended.
func (s *server) stop() {
	s.cmd.Process.Signal(os.Interrupt)
	select {
	case <-s.done:
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
	}
}

// usage reads the live server's CPU so far (utime+stime of the whole
// process) and its peak RSS from /proc.
func (s *server) usage() (usage, error) {
	pid := strconv.Itoa(s.cmd.Process.Pid)
	stat, err := os.ReadFile(filepath.Join("/proc", pid, "stat"))
	if err != nil {
		return usage{}, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, in USER_HZ ticks (100/s on Linux).
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return usage{}, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(stat[i+1:]))
	if len(f) < 13 {
		return usage{}, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return usage{}, errors.New("unparsable /proc stat times")
	}
	u := usage{CPU: time.Duration(ut+st) * (time.Second / 100)}
	status, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return usage{}, err
	}
	u.PeakKB, err = procStatusKB(status, "VmHWM:")
	return u, err
}

// procStatusKB extracts one "Key:  123 kB" line from /proc/<pid>/status.
func procStatusKB(status []byte, key string) (int64, error) {
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				return strconv.ParseInt(f[0], 10, 64)
			}
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", key)
}

// dirBytes sums every regular file in dir: samples, sidecars, meta,
// manifests and checkpoints alike.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		n += fi.Size()
		return nil
	})
	return n, err
}

func fileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
