package loopd

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"loopsched/internal/jobs"
	"loopsched/internal/spin"
)

func TestMain(m *testing.M) {
	// See internal/jobs: shrink the spin thresholds so sub-team join waves on
	// small test machines yield quickly.
	spin.ActiveSpins = 1 << 6
	spin.YieldThreshold = 1 << 8
	os.Exit(m.Run())
}

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	// Close the runtime first: it cancels parked jobs, so a /run still in
	// flight after a failed test answers and the listener can drain.
	t.Cleanup(func() {
		srv.Close()
		ts.Close()
	})
	return srv, ts
}

// TestConcurrentRunRequests is the acceptance shape: at least 8 concurrent
// /run tenants against one shared pool, each verifying its reduction result,
// with the whole test run under -race.
func TestConcurrentRunRequests(t *testing.T) {
	_, ts := newTestServer(t)
	const tenants = 12
	var wg sync.WaitGroup
	for g := 0; g < tenants; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			n := 1000 + g
			resp, err := http.Post(
				fmt.Sprintf("%s/run?workload=sum&n=%d&jobs=2", ts.URL, n), "", nil)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				body, _ := io.ReadAll(resp.Body)
				t.Errorf("tenant %d: status %d: %s", g, resp.StatusCode, body)
				return
			}
			var rr runResponse
			if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
				t.Error(err)
				return
			}
			if rr.Jobs != 2 || len(rr.Results) != 2 {
				t.Errorf("tenant %d: %+v", g, rr)
				return
			}
			want := float64(n) * float64(n-1) / 2
			for i, res := range rr.Results {
				if res.Error != "" {
					t.Errorf("tenant %d job %d: %s", g, i, res.Error)
				}
				if res.Result != want {
					t.Errorf("tenant %d job %d: result %v, want %v", g, i, res.Result, want)
				}
				if res.Workers < 1 {
					t.Errorf("tenant %d job %d: ran on %d workers", g, i, res.Workers)
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	if _, err := http.Post(ts.URL+"/run?workload=sum&n=500", "", nil); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Queue.Workers != 4 {
		t.Errorf("workers = %d, want 4", st.Queue.Workers)
	}
	if st.Queue.Completed < 1 {
		t.Errorf("completed = %d", st.Queue.Completed)
	}
	if len(st.Workloads) < 3 {
		t.Errorf("workloads = %v", st.Workloads)
	}
	if st.UptimeSeconds <= 0 {
		t.Errorf("uptime = %v", st.UptimeSeconds)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	if _, err := http.Post(ts.URL+"/run?workload=sum&n=500&jobs=3", "", nil); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE loopd_workers gauge",
		"loopd_workers 4",
		"# TYPE loopd_jobs_completed_total counter",
		"loopd_job_latency_seconds_bucket{le=\"+Inf\"} 3",
		"loopd_iterations_total 1500",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// parseExposition parses Prometheus text exposition into type declarations
// and sample values, failing the test on malformed lines.
func parseExposition(t *testing.T, text string) (types map[string]string, samples map[string]float64) {
	t.Helper()
	types = make(map[string]string)
	samples = make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			types[fields[2]] = fields[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed sample line: %q", line)
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("sample %q has non-numeric value: %v", line, err)
		}
		samples[fields[0]] = v
	}
	return types, samples
}

// checkHistogram checks one series set of a Prometheus histogram in the
// exposition text — TYPE histogram, le bounds strictly increasing,
// cumulative counts never decreasing, +Inf equal to _count — and returns its
// _count and _sum.
func checkHistogram(t *testing.T, text, name, labels string) (count, sum float64) {
	t.Helper()
	types, samples := parseExposition(t, text)
	if got := types[name]; got != "histogram" {
		t.Errorf("%s TYPE = %q, want histogram", name, got)
	}
	sep := ""
	if labels != "" {
		sep = ","
	}
	prefix := name + "_bucket{" + labels + sep + `le="`
	prevLe, prevCum := math.Inf(-1), 0.0
	for _, line := range strings.Split(text, "\n") {
		series, val, _ := strings.Cut(line, " ")
		if !strings.HasPrefix(series, prefix) {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimPrefix(series, prefix), `"}`), 64)
		cum, _ := strconv.ParseFloat(val, 64)
		if err != nil || le <= prevLe || cum < prevCum {
			t.Errorf("%s: bucket %q after le=%v with count %v", name, line, prevLe, prevCum)
		}
		prevLe, prevCum = le, cum
	}
	if labels != "" {
		labels = "{" + labels + "}"
	}
	count, okCount := samples[name+"_count"+labels]
	sum, okSum := samples[name+"_sum"+labels]
	if !math.IsInf(prevLe, 1) || !okCount || !okSum || prevCum != count {
		t.Errorf("%s%s: last le %v with %v, _count %v (present %v), _sum present %v", name, labels, prevLe, prevCum, count, okCount, okSum)
	}
	return count, sum
}

func TestMetricsHistogramConformance(t *testing.T) {
	// Job latency and run time are Prometheus histograms: cumulative
	// _bucket series ending in +Inf, plus _sum and _count from the same
	// snapshot, with _count equal to the completed-jobs counter.
	_, ts := newTestServer(t)
	const jobs = 4
	if _, err := http.Post(ts.URL+fmt.Sprintf("/run?workload=sum&n=800&jobs=%d", jobs), "", nil); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	types, samples := parseExposition(t, string(body))
	for _, name := range []string{"loopd_job_latency_seconds", "loopd_job_run_seconds"} {
		count, sum := checkHistogram(t, string(body), name, "")
		if sum <= 0 {
			t.Errorf("%s_sum = %v, want > 0", name, sum)
		}
		if completed := samples["loopd_jobs_completed_total"]; count != completed || count != jobs {
			t.Errorf("%s_count = %v, want completed total %v = %d", name, count, completed, jobs)
		}
	}
	for _, name := range []string{"loopd_workers_grown_total", "loopd_workers_peeled_total"} {
		if got := types[name]; got != "counter" {
			t.Errorf("%s TYPE = %q, want counter", name, got)
		}
		if v, ok := samples[name]; !ok || v < 0 {
			t.Errorf("%s sample missing or negative: %v (present %v)", name, v, ok)
		}
	}
}

func TestRunParameterValidation(t *testing.T) {
	_, ts := newTestServer(t)
	for _, url := range []string{
		"/run?workload=no-such-workload",
		"/run?n=abc",
		"/run?n=-5",
		"/run?jobs=100000",
	} {
		resp, err := http.Post(ts.URL+url, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", url, resp.StatusCode)
		}
	}
	// Method matters: /run is POST-only, /stats GET-only.
	resp, err := http.Get(ts.URL + "/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /run: status %d, want 405", resp.StatusCode)
	}
}

func TestShardedConcurrentRunsAndMetricsReconcile(t *testing.T) {
	// Concurrent /run tenants against an explicitly 2-sharded pool: every
	// reduction must be exact, the shard-labelled /metrics series must parse,
	// and the per-shard _sum/_count totals must reconcile with /stats.
	srv, err := New(Config{Workers: 4, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer func() {
		srv.Close()
		ts.Close()
	}()
	const tenants = 10
	var wg sync.WaitGroup
	for g := 0; g < tenants; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			n := 900 + g
			url := fmt.Sprintf("%s/run?workload=sum&n=%d&jobs=2", ts.URL, n)
			if g%3 == 0 {
				url += fmt.Sprintf("&shard=%d", g%2) // a few pinned tenants
			}
			resp, err := http.Post(url, "", nil)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				body, _ := io.ReadAll(resp.Body)
				t.Errorf("tenant %d: status %d: %s", g, resp.StatusCode, body)
				return
			}
			var rr runResponse
			if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
				t.Error(err)
				return
			}
			want := float64(n) * float64(n-1) / 2
			for i, res := range rr.Results {
				if res.Error != "" {
					t.Errorf("tenant %d job %d: %s", g, i, res.Error)
				}
				if res.Result != want {
					t.Errorf("tenant %d job %d: result %v, want %v", g, i, res.Result, want)
				}
			}
		}(g)
	}
	wg.Wait()

	// Fetch both views of the same runtime.
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st statsResponse
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	types, samples := parseExposition(t, string(body))

	if st.Shards != 2 || len(st.ShardStats) != 2 {
		t.Fatalf("/stats shards = %d (%d snapshots), want 2", st.Shards, len(st.ShardStats))
	}
	if got := samples["loopd_shards"]; got != 2 {
		t.Errorf("loopd_shards = %v, want 2", got)
	}
	if types["loopd_shard_jobs_stolen_total"] != "counter" {
		t.Errorf("loopd_shard_jobs_stolen_total TYPE = %q, want counter", types["loopd_shard_jobs_stolen_total"])
	}

	// Per-shard series must exist for every shard and reconcile with both
	// the /stats snapshots and the pool-wide totals.
	var sumCompleted, sumLatency, sumIters float64
	for i := 0; i < st.Shards; i++ {
		shard := fmt.Sprintf("shard=\"%d\"", i)
		count, lsum := checkHistogram(t, string(body), "loopd_shard_job_latency_seconds", shard)
		if want := float64(st.ShardStats[i].Completed); count != want {
			t.Errorf("shard %d metrics count %v != /stats completed %v", i, count, want)
		}
		sumCompleted += count
		sumLatency += lsum
		sumIters += samples["loopd_shard_iterations_total{"+shard+"}"]
	}
	if total := samples["loopd_jobs_completed_total"]; sumCompleted != total || sumCompleted != samples["loopd_job_latency_seconds_count"] {
		t.Errorf("per-shard counts sum to %v, total series say %v and %v", sumCompleted, total, samples["loopd_job_latency_seconds_count"])
	}
	if want := float64(st.Queue.Completed); sumCompleted != want {
		t.Errorf("per-shard counts sum to %v, /stats total says %v", sumCompleted, want)
	}
	if total := samples["loopd_job_latency_seconds_sum"]; math.Abs(sumLatency-total) > 1e-9*(1+total) {
		t.Errorf("per-shard latency sums %v != total %v", sumLatency, total)
	}
	if total := samples["loopd_iterations_total"]; sumIters != total {
		t.Errorf("per-shard iteration counts sum to %v, total says %v", sumIters, total)
	}
	// Router sanity: with 10 concurrent tenants, both shards served jobs.
	for i := 0; i < st.Shards; i++ {
		if st.ShardStats[i].Completed == 0 && st.ShardStats[i].Submitted == 0 {
			t.Errorf("shard %d saw no traffic: router or stealing broken", i)
		}
	}
}

func TestRunShardPinParameterValidation(t *testing.T) {
	srv, err := New(Config{Workers: 2, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer func() {
		srv.Close()
		ts.Close()
	}()
	resp, err := http.Post(ts.URL+"/run?workload=sum&n=100&shard=7", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("out-of-range shard pin: status %d, want 400", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/run?workload=sum&n=100&shard=1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("valid shard pin: status %d, want 200", resp.StatusCode)
	}
	if got := srv.rt.Shard(1).Stats().Submitted; got < 1 {
		t.Errorf("shard 1 submitted = %d, want the pinned job", got)
	}
}

func TestPipelineRun(t *testing.T) {
	// A 3-stage pipeline with a fanned-out middle stage: every sum result
	// must be exact, and the runtime must report the dependent stages as
	// blocked-then-released rather than queued.
	srv, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/run?pipeline=sum:1000,sum:2000:3,sum:500", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var rr runResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if len(rr.Pipeline) != 3 || rr.Jobs != 5 {
		t.Fatalf("pipeline = %d stages, %d jobs; want 3 stages, 5 jobs", len(rr.Pipeline), rr.Jobs)
	}
	wantN := []int{1000, 2000, 500}
	wantWidth := []int{1, 3, 1}
	for i, st := range rr.Pipeline {
		if st.N != wantN[i] || st.Width != wantWidth[i] || len(st.Results) != wantWidth[i] {
			t.Errorf("stage %d = %+v, want n=%d width=%d", i, st, wantN[i], wantWidth[i])
		}
		want := float64(st.N) * float64(st.N-1) / 2
		for j, res := range st.Results {
			if res.Error != "" {
				t.Errorf("stage %d job %d: %s", i, j, res.Error)
			}
			if res.Result != want {
				t.Errorf("stage %d job %d: result %v, want %v", i, j, res.Result, want)
			}
		}
	}
	// Stages 2 and 3 contributed 4 dependent jobs, all released by joins.
	st := srv.rt.Stats()
	if st.Total.Released != 4 {
		t.Errorf("released = %d, want 4", st.Total.Released)
	}
	if st.Total.BlockedDepth != 0 {
		t.Errorf("blocked depth = %d after completion, want 0", st.Total.BlockedDepth)
	}
}

func TestPipelineValidation(t *testing.T) {
	_, ts := newTestServer(t)
	for _, url := range []string{
		"/run?pipeline=sum:abc",
		"/run?pipeline=sum:100:9999999",
		"/run?pipeline=no-such-workload:100",
		"/run?pipeline=sum:100:1:1",
		"/run?pipeline=,",
	} {
		resp, err := http.Post(ts.URL+url, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", url, resp.StatusCode)
		}
	}
}

func TestPipelineMetricsExposed(t *testing.T) {
	_, ts := newTestServer(t)
	if _, err := http.Post(ts.URL+"/run?pipeline=sum:500,sum:500", "", nil); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	types, samples := parseExposition(t, string(body))
	if types["loopd_blocked_depth"] != "gauge" {
		t.Errorf("loopd_blocked_depth TYPE = %q, want gauge", types["loopd_blocked_depth"])
	}
	for _, name := range []string{"loopd_jobs_released_total", "loopd_jobs_depcanceled_total"} {
		if types[name] != "counter" {
			t.Errorf("%s TYPE = %q, want counter", name, types[name])
		}
	}
	if v := samples["loopd_jobs_released_total"]; v != 1 {
		t.Errorf("loopd_jobs_released_total = %v, want 1", v)
	}
	// The shard-labelled released counters must reconcile with the total.
	var shardSum float64
	for name, v := range samples {
		if strings.HasPrefix(name, "loopd_shard_jobs_released_total{") {
			shardSum += v
		}
	}
	if shardSum != samples["loopd_jobs_released_total"] {
		t.Errorf("per-shard released sum %v != total %v", shardSum, samples["loopd_jobs_released_total"])
	}
}

func TestTenantParamsRoundTripAndMetricsReconcile(t *testing.T) {
	// &tenant= / &prio= / &deadline_ms= round-trip through /run into the
	// runtime's tenant accounts, and the tenant-labelled /metrics series
	// reconcile with the untagged totals: every job is charged to exactly
	// one account, so the sums over the tenant label must equal the
	// pool-wide counters.
	srv, err := New(Config{Workers: 4, TenantWeights: map[string]int{"gold": 3, "bronze": 1}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer func() {
		srv.Close()
		ts.Close()
	}()
	post := func(url string) {
		t.Helper()
		resp, err := http.Post(ts.URL+url, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("%s: status %d: %s", url, resp.StatusCode, body)
		}
		var rr runResponse
		if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
			t.Fatal(err)
		}
		for i, res := range rr.Results {
			if res.Error != "" {
				t.Fatalf("%s job %d: %s", url, i, res.Error)
			}
		}
	}
	post("/run?workload=sum&n=600&jobs=3&tenant=gold&prio=5&deadline_ms=60000")
	post("/run?workload=sum&n=500&jobs=2&tenant=bronze")
	post("/run?workload=sum&n=400") // untagged: charged to "default"

	// /stats: the tenant accounts carry the weights and the served work.
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st statsResponse
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	gold, ok := st.Queue.Tenants["gold"]
	if !ok {
		t.Fatalf("/stats has no gold tenant account: %+v", st.Queue.Tenants)
	}
	if gold.Weight != 3 || gold.Submitted != 3 || gold.Completed != 3 || gold.IterationsDone != 3*600 {
		t.Errorf("gold account = %+v, want weight 3, 3 submitted/completed, %d iterations", gold, 3*600)
	}
	if bronze := st.Queue.Tenants["bronze"]; bronze.Weight != 1 || bronze.Completed != 2 {
		t.Errorf("bronze account = %+v, want weight 1 and 2 completions", bronze)
	}
	if def := st.Queue.Tenants["default"]; def.Completed != 1 {
		t.Errorf("default account = %+v, want the untagged job", def)
	}

	// /metrics: parse the real exposition output and reconcile the
	// tenant-labelled series with the untagged totals.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	types, samples := parseExposition(t, string(body))
	for _, name := range []string{"loopd_tenant_jobs_submitted_total", "loopd_tenant_jobs_completed_total", "loopd_tenant_iterations_total"} {
		if got := types[name]; got != "counter" {
			t.Errorf("%s TYPE = %q, want counter", name, got)
		}
	}
	if got := samples[`loopd_tenant_weight{tenant="gold"}`]; got != 3 {
		t.Errorf(`loopd_tenant_weight{tenant="gold"} = %v, want 3`, got)
	}
	if got := samples[`loopd_tenant_jobs_completed_total{tenant="gold"}`]; got != 3 {
		t.Errorf(`gold completed series = %v, want 3`, got)
	}
	for metric, total := range map[string]string{
		"loopd_tenant_jobs_submitted_total": "loopd_jobs_submitted_total",
		"loopd_tenant_jobs_completed_total": "loopd_jobs_completed_total",
		"loopd_tenant_iterations_total":     "loopd_iterations_total",
	} {
		var sum float64
		for name, v := range samples {
			if strings.HasPrefix(name, metric+"{") {
				sum += v
			}
		}
		if sum != samples[total] {
			t.Errorf("per-tenant %s sums to %v, untagged %s says %v", metric, sum, total, samples[total])
		}
	}
}

func TestTenantParamValidation(t *testing.T) {
	_, ts := newTestServer(t)
	for _, url := range []string{
		"/run?workload=sum&n=100&prio=abc",
		"/run?workload=sum&n=100&prio=1000",
		"/run?workload=sum&n=100&deadline_ms=-5",
		"/run?workload=sum&n=100&tenant=bad%20name", // space not in [A-Za-z0-9_.-]
		"/run?workload=sum&n=100&tenant=" + strings.Repeat("x", 65),
	} {
		resp, err := http.Post(ts.URL+url, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", url, resp.StatusCode)
		}
	}
}

func TestParseTenantWeights(t *testing.T) {
	got, err := ParseTenantWeights("gold=3, bronze=1")
	if err != nil || got["gold"] != 3 || got["bronze"] != 1 || len(got) != 2 {
		t.Errorf("named spec -> %v, %v", got, err)
	}
	got, err = ParseTenantWeights("3,1,2")
	if err != nil || got["t1"] != 3 || got["t2"] != 1 || got["t3"] != 2 {
		t.Errorf("bare spec -> %v, %v", got, err)
	}
	if got, err := ParseTenantWeights(""); err != nil || got != nil {
		t.Errorf("empty spec -> %v, %v", got, err)
	}
	for _, bad := range []string{"gold=0", "gold=-1", "gold=x", "=3", "gold"} {
		if _, err := ParseTenantWeights(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestPipelineBadLaterStageSubmitsNothing(t *testing.T) {
	// A request whose later stage names an unknown workload must 400
	// without having already launched (and abandoned) the earlier stages.
	srv, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/run?pipeline=sum:100000,no-such-workload:100", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if st := srv.rt.Stats(); st.Total.Submitted != 0 {
		t.Errorf("submitted = %d, want 0 (orphaned stage jobs launched before validation)", st.Total.Submitted)
	}
}

func TestPipelineRejectsConflictingParams(t *testing.T) {
	_, ts := newTestServer(t)
	for _, url := range []string{
		"/run?pipeline=sum:100&workload=spin",
		"/run?pipeline=sum:100&jobs=4",
	} {
		resp, err := http.Post(ts.URL+url, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", url, resp.StatusCode)
		}
	}
}

// TestRunBatch exercises the batched admission form of /run: &batch=1
// submits the whole fan-out through SubmitBatch, and the response must carry
// the same fields and correct per-job results as the unbatched form.
func TestRunBatch(t *testing.T) {
	_, ts := newTestServer(t)
	for _, q := range []string{
		"/run?workload=sum&n=2048&jobs=6&batch=1",
		"/run?workload=sum&n=2048&jobs=6&batch=1&shard=0",
		"/run?workload=sum&n=2048&jobs=6&batch=1&tenant=gold&prio=2",
	} {
		resp, err := http.Post(ts.URL+q, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", q, resp.StatusCode, body)
		}
		var rr runResponse
		if err := json.Unmarshal(body, &rr); err != nil {
			t.Fatal(err)
		}
		if rr.Jobs != 6 || len(rr.Results) != 6 {
			t.Fatalf("%s: %+v", q, rr)
		}
		want := float64(2048) * 2047 / 2
		for i, res := range rr.Results {
			if res.Error != "" {
				t.Fatalf("%s: job %d: %s", q, i, res.Error)
			}
			if math.Abs(res.Result-want) > 1e-6 {
				t.Fatalf("%s: job %d: result %v, want %v", q, i, res.Result, want)
			}
		}
	}
	// batch conflicts with pipeline.
	resp, err := http.Post(ts.URL+"/run?pipeline=sum:100&batch=1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("pipeline+batch: status %d, want 400", resp.StatusCode)
	}
}

// TestWriteJSONPooledIdentical pins the response-buffer pooling contract:
// writeJSON through the recycled buffers produces byte-identical output to a
// fresh indent encoder, across repeated (pool-reusing) calls.
func TestWriteJSONPooledIdentical(t *testing.T) {
	fixture := runResponse{
		Workload:   "sum",
		Jobs:       2,
		Iterations: 128,
		Results: []runJobResult{
			{Seconds: 0.25, Workers: 2, Result: 8128},
			{Seconds: 0.5, Workers: 1, Result: 8128, Error: "boom"},
		},
		WallSeconds: 0.75,
	}
	var want strings.Builder
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	if err := enc.Encode(fixture); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		rec := httptest.NewRecorder()
		writeJSON(rec, fixture)
		if got := rec.Body.String(); got != want.String() {
			t.Fatalf("call %d: pooled writeJSON diverged:\ngot  %q\nwant %q", i, got, want.String())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("call %d: Content-Type = %q", i, ct)
		}
	}
}

// TestSLOTargetGaugeAlwaysPresent pins the satellite fix: loopd_slo_target is
// the daemon's configured objective, so it must be scrapeable before any job
// has completed (previously it only appeared once some tenant had a non-empty
// SLO window, and then echoed that tenant's target).
func TestSLOTargetGaugeAlwaysPresent(t *testing.T) {
	for _, tc := range []struct {
		target float64
		want   string
	}{
		{0, "loopd_slo_target 0.99"},    // default
		{0.95, "loopd_slo_target 0.95"}, // configured
	} {
		srv, err := New(Config{Workers: 2, SLOTarget: tc.target})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		srv.Close()
		ts.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(body), tc.want+"\n") {
			t.Errorf("SLOTarget=%v: fresh /metrics missing %q", tc.target, tc.want)
		}
	}
}

// TestNoWaitBackpressure rejects a &nowait=1 submission with 503 and a
// Retry-After hint when the admission queue is full, instead of blocking the
// handler. The queue is filled deterministically: a blocker job occupies
// every worker and a second job holds the single queue slot.
func TestNoWaitBackpressure(t *testing.T) {
	srv, err := New(Config{Workers: 2, Shards: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer func() {
		srv.Close()
		ts.Close()
	}()
	release := make(chan struct{})
	block := func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			<-release
		}
	}
	blocker, err := srv.rt.Submit(jobs.Request{N: 2, Grain: 1, Body: block})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the blocker to hold the workers so the next job queues.
	deadline := time.Now().Add(5 * time.Second)
	for srv.rt.Stats().Total.Running < 1 {
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(time.Millisecond)
	}
	queued, err := srv.rt.Submit(jobs.Request{N: 1, Body: block, NoWait: true})
	if err != nil {
		t.Fatalf("queued job rejected with the slot free: %v", err)
	}
	for srv.rt.Stats().Total.QueueDepth < 1 {
		if time.Now().After(deadline) {
			t.Fatal("second job never queued")
		}
		time.Sleep(time.Millisecond)
	}
	resp, err := http.Post(ts.URL+"/run?workload=sum&n=64&nowait=1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("nowait submit with a full queue: status %d (%s), want 503", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("503 response missing Retry-After")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Errorf("Retry-After = %q, want a positive integral number of seconds", ra)
	}
	st := srv.rt.Stats().Total
	if st.ShedTotal < 1 || st.BackloggedTotal < 1 {
		t.Errorf("shed/backlogged totals = %d/%d, want >= 1", st.ShedTotal, st.BackloggedTotal)
	}
	// Drain: three receives release the blocker's two iterations and the
	// queued job's one.
	close(release)
	if _, err := blocker.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := queued.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestOverloadStatusMapping pins the HTTP error taxonomy: breaker sheds are
// the caller's fault (429), backlog and infeasible sheds are the service's
// (503), and other submission errors are not overload rejections.
func TestOverloadStatusMapping(t *testing.T) {
	for _, tc := range []struct {
		err  error
		code int
		ok   bool
	}{
		{jobs.ErrBreakerOpen, http.StatusTooManyRequests, true},
		{jobs.ErrBacklogged, http.StatusServiceUnavailable, true},
		{jobs.ErrInfeasible, http.StatusServiceUnavailable, true},
		{&jobs.OverloadError{Err: jobs.ErrBreakerOpen, RetryAfter: time.Second}, http.StatusTooManyRequests, true},
		{jobs.ErrClosed, 0, false},
	} {
		code, ok := overloadStatus(tc.err)
		if code != tc.code || ok != tc.ok {
			t.Errorf("overloadStatus(%v) = (%d, %v), want (%d, %v)", tc.err, code, ok, tc.code, tc.ok)
		}
	}
}

// TestUnknownWorkloadListsRegistered pins the unknown-workload contract: a
// bad name 400s with a structured JSON body carrying every registered
// workload — including the numeric kernels the load generator replays.
func TestUnknownWorkloadListsRegistered(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/run?workload=no-such-workload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content-type = %q, want application/json", ct)
	}
	var body struct {
		Error     string   `json:"error"`
		Workloads []string `json:"workloads"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode 400 body: %v", err)
	}
	if body.Error == "" {
		t.Error("400 body has no error message")
	}
	for _, want := range []string{"mpdata", "linreg", "grid", "mapreduce", "spin"} {
		found := false
		for _, w := range body.Workloads {
			if w == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("workload %q missing from 400 body list %v", want, body.Workloads)
		}
	}
}

// TestKernelWorkloadsServed runs each numeric kernel through the full HTTP
// path: /run must answer 200 with a finite positive reduction.
func TestKernelWorkloadsServed(t *testing.T) {
	_, ts := newTestServer(t)
	for _, name := range []string{"mpdata", "linreg", "grid", "mapreduce"} {
		resp, err := http.Post(ts.URL+"/run?workload="+name+"&n=2048", "", nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var body struct {
			Results []struct {
				Result float64 `json:"result"`
				Error  string  `json:"error"`
			} `json:"results"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status = %d, want 200", name, resp.StatusCode)
		}
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if len(body.Results) != 1 || body.Results[0].Error != "" || !(body.Results[0].Result > 0) {
			t.Errorf("%s: results = %+v, want one finite positive result", name, body.Results)
		}
	}
}
