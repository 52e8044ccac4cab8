package server

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"kanon"
)

// kernelCSV builds a deterministic clustered table for the kernel
// byte-identity runs.
func kernelCSV(n int) string {
	rng := rand.New(rand.NewSource(42))
	var b strings.Builder
	b.WriteString("age,zip,dx\n")
	for i := 0; i < n; i++ {
		c := rng.Intn(6)
		fmt.Fprintf(&b, "%d,%d,d%d\n", 20+c*5+rng.Intn(2), 15200+c, c%3)
	}
	return b.String()
}

// submitForResult submits, waits for success, and returns the result bytes.
func submitForResult(t *testing.T, ts *httptest.Server, query, body string) ([]byte, Status) {
	t.Helper()
	st, resp := submit(t, ts, query, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("%s: submit status %d", query, resp.StatusCode)
	}
	done := pollUntil(t, ts, st.ID, 10e9, func(s Status) bool { return s.State.Terminal() })
	if done.State != StateSucceeded {
		t.Fatalf("%s: state %s, error %q", query, done.State, done.Error)
	}
	rr, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Body.Close()
	got, _ := io.ReadAll(rr.Body)
	if rr.StatusCode != http.StatusOK {
		t.Fatalf("%s: result status %d: %s", query, rr.StatusCode, got)
	}
	return got, done
}

// TestE2EKernelByteIdentity is the service half of the cross-kernel
// acceptance criterion: the same submission under kernel=dense,
// kernel=bitset, and kernel=auto returns byte-identical results, with
// tracing both off and on, for every algorithm the service runs and
// for the block-streaming path.
func TestE2EKernelByteIdentity(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	csv := kernelCSV(150)
	for _, base := range []string{
		"k=2",
		"k=2&algo=exhaustive",
		"k=2&algo=pattern",
		"k=2&algo=random&seed=7",
		"k=2&block=40",
	} {
		for _, trace := range []string{"", "&trace=true"} {
			dense, dst := submitForResult(t, ts, base+trace+"&kernel=dense", csv)
			bitset, bst := submitForResult(t, ts, base+trace+"&kernel=bitset", csv)
			auto, _ := submitForResult(t, ts, base+trace+"&kernel=auto", csv)
			if string(dense) != string(bitset) {
				t.Errorf("%s%s: dense and bitset results differ", base, trace)
			}
			if string(dense) != string(auto) {
				t.Errorf("%s%s: dense and auto results differ", base, trace)
			}
			if dst.Cost == nil || bst.Cost == nil || *dst.Cost != *bst.Cost {
				t.Errorf("%s%s: costs differ: %v vs %v", base, trace, dst.Cost, bst.Cost)
			}
			if dst.Kernel != "dense" || bst.Kernel != "bitset" {
				t.Errorf("%s%s: status kernels = %q, %q", base, trace, dst.Kernel, bst.Kernel)
			}
		}
	}
}

// TestKernelDefaultFromConfig pins the admission-time resolution: a
// submission without ?kernel= runs under the server's configured
// default, and the status reports the resolved choice.
func TestKernelDefaultFromConfig(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Kernel: kanon.KernelBitset})
	_, st := submitForResult(t, ts, "k=2", sampleCSV)
	if st.Kernel != "bitset" {
		t.Errorf("status kernel = %q, want the configured bitset default", st.Kernel)
	}
}

func TestKernelParamRejected(t *testing.T) {
	if _, err := ParseJobRequest(url.Values{"k": {"2"}, "kernel": {"sparse"}}); err == nil {
		t.Error("accepted unknown kernel name")
	}
	req, err := ParseJobRequest(url.Values{"k": {"2"}, "kernel": {"dense"}})
	if err != nil {
		t.Fatal(err)
	}
	if !req.KernelSet || req.Kernel != kanon.KernelDense {
		t.Errorf("parsed request = %+v, want explicit dense", req)
	}
	req, err = ParseJobRequest(url.Values{"k": {"2"}})
	if err != nil {
		t.Fatal(err)
	}
	if req.KernelSet {
		t.Error("KernelSet true for a submission without ?kernel=")
	}
}

// TestKernelManifestRoundTrip pins the durability contract: the
// resolved kernel survives the manifest encode/decode cycle, and a
// legacy manifest without the field recovers as auto.
func TestKernelManifestRoundTrip(t *testing.T) {
	job := &Job{
		ID:  "job-roundtrip",
		Req: JobRequest{K: 2, Algorithm: kanon.AlgoGreedyBall, Kernel: kanon.KernelBitset, KernelSet: true},
	}
	man := job.manifest()
	if man.Kernel != "bitset" {
		t.Fatalf("manifest kernel = %q, want bitset", man.Kernel)
	}
	req, err := requestFromManifest(man)
	if err != nil {
		t.Fatal(err)
	}
	if req.Kernel != kanon.KernelBitset || !req.KernelSet {
		t.Errorf("recovered request = %+v, want explicit bitset", req)
	}
	man.Kernel = "" // a manifest written before the field existed
	req, err = requestFromManifest(man)
	if err != nil {
		t.Fatal(err)
	}
	if req.Kernel != kanon.KernelAuto {
		t.Errorf("legacy manifest recovered kernel %v, want auto", req.Kernel)
	}
}
