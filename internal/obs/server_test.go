package obs

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"gemini/internal/metrics"
)

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestServerEndpoints(t *testing.T) {
	prog := NewProgress()
	prog.Begin(10, 1000)
	prog.RunStarted()
	prog.RunDone(4, 1000)
	reg := NewSyncRegistry()
	run := metrics.NewRegistry()
	run.Histogram("campaign.wasted_seconds").Observe(300)
	reg.Merge(run)

	srv, err := NewServer("127.0.0.1:0", prog, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	code, body := getBody(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"# TYPE campaign_total_runs gauge\ncampaign_total_runs 10\n",
		"campaign_done_runs 1\n",
		"campaign_failures_replayed 4\n",
		"# TYPE campaign_wasted_seconds histogram\n",
		`campaign_wasted_seconds_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	code, body = getBody(t, base+"/progress")
	if code != http.StatusOK {
		t.Fatalf("/progress status %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/progress not JSON: %v\n%s", err, body)
	}
	if snap.TotalRuns != 10 || snap.DoneRuns != 1 || snap.Failures != 4 {
		t.Fatalf("/progress snapshot %+v", snap)
	}

	if code, _ := getBody(t, base+"/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline status %d", code)
	}
}

// A client that sends half a request header and then stalls must lose
// its connection once the header deadline passes.
func TestServerClosesStalledRequest(t *testing.T) {
	t.Parallel()
	srv, err := NewServer("127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /metrics HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := conn.SetReadDeadline(start.Add(readHeaderTimeout + 10*time.Second)); err != nil {
		t.Fatal(err)
	}
	_, err = io.ReadAll(conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("stalled request still open after %v", time.Since(start))
	}
	if waited := time.Since(start); waited < readHeaderTimeout/2 {
		t.Fatalf("connection closed after %v, before the %v header timeout", waited, readHeaderTimeout)
	}
}

// Nil progress and registry must serve empty-but-valid endpoints.
func TestServerNilSources(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()
	if code, body := getBody(t, base+"/metrics"); code != http.StatusOK || body != "" {
		t.Fatalf("/metrics with nil sources: status %d body %q", code, body)
	}
	code, body := getBody(t, base+"/progress")
	if code != http.StatusOK {
		t.Fatalf("/progress status %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil || snap != (Snapshot{}) {
		t.Fatalf("/progress with nil progress: %v %+v", err, snap)
	}
}
