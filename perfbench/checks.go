package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
)

// The output checks. Each is a plain function of the program's output and
// of expected values the benchmark computed itself, so the self-test can
// feed it a corrupted output.

// massTolerance is the relative mass drift allowed over one round of
// mpdata-sync steps: round-off only.
const massTolerance = 1e-11

// mass returns Σ psi·area, summed sequentially by the benchmark.
func mass(psi, area []float64) float64 {
	m := 0.0
	for p := range psi {
		m += psi[p] * area[p]
	}
	return m
}

// checkField requires the parallel MPDATA field to equal the sequential one
// bit for bit (a step has no reductions, so partitioning cannot change a
// single rounding) and the mass to be conserved to round-off.
func checkField(got, want, area []float64, mass0 float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("mpdata-sync: field has %d points, want %d", len(got), len(want))
	}
	for p := range got {
		if math.Float64bits(got[p]) != math.Float64bits(want[p]) {
			return fmt.Errorf("mpdata-sync: point %d is %v, sequential run gives %v", p, got[p], want[p])
		}
	}
	if m := mass(got, area); math.Abs(m-mass0) > massTolerance*math.Abs(mass0) {
		return fmt.Errorf("mpdata-sync: mass %v, started at %v", m, mass0)
	}
	return nil
}

// checkSum requires a jobs-async reduction to equal the benchmark's own
// sequential sum exactly: its terms are integers, so no fold order rounds.
func checkSum(got, want float64) error {
	if got != want {
		return fmt.Errorf("jobs-async: reduction gave %v, sequential sum is %v", got, want)
	}
	return nil
}

// checkCoverage requires every write job to have visited each of its
// indices exactly once: index i was visited by every fine and coarse write
// job if i < edges, and by every coarse one otherwise. visited, the atomic
// total of the chunk lengths run, must equal the jobs' total size, so a
// chunk run twice at the same time shows even if the per-index counts
// lost an increment.
func checkCoverage(cnt []uint32, visited int64, writes [2]int, edges int) error {
	if want := int64(writes[0]+coarseSweeps*writes[1]) * int64(edges); visited != want {
		return fmt.Errorf("jobs-async: write jobs ran %d iterations, their sizes add up to %d", visited, want)
	}
	for i, c := range cnt {
		want := writes[1]
		if i < edges {
			want += writes[0]
		}
		if int(c) != want {
			return fmt.Errorf("jobs-async: index %d written %d times by %d write jobs covering it", i, c, want)
		}
	}
	return nil
}

// checkWrites requires every written index to hold its term.
func checkWrites(vals []float64, cnt []uint32, in *edgeInput) error {
	for i, v := range vals {
		if cnt[i] == 0 {
			continue
		}
		if want := in.sum(i, i+1, 0); v != want {
			return fmt.Errorf("jobs-async: index %d holds %v, want %v", i, v, want)
		}
	}
	return nil
}

// kernelTolerance is the relative difference allowed between a served
// kernel result and the sequential fold. linreg and mapreduce sum integers
// and must match exactly; mpdata and grid sum real values, whose fold order
// depends on how the job was split.
var kernelTolerance = map[string]float64{"mpdata": 1e-9, "grid": 1e-9, "linreg": 0, "mapreduce": 0}

// checkResponse requires a 200 response whose every job succeeded with the
// result of the sequential fold of its kernel, and returns the decoded body.
func checkResponse(status int, body []byte, r httpReq, want map[string]float64) (*runResp, error) {
	if status != http.StatusOK {
		return nil, fmt.Errorf("loopd-http: %s: status %d: %.200s", r.path(), status, body)
	}
	var resp runResp
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("loopd-http: %s: %w", r.path(), err)
	}
	check := func(kernel string, got []runJob, width int) error {
		if len(got) != width {
			return fmt.Errorf("loopd-http: %s: %d %s results, want %d", r.path(), len(got), kernel, width)
		}
		w := want[kernel]
		for _, j := range got {
			if j.Error != "" {
				return fmt.Errorf("loopd-http: %s: job error %q", r.path(), j.Error)
			}
			if math.Abs(j.Result-w) > kernelTolerance[kernel]*math.Abs(w) {
				return fmt.Errorf("loopd-http: %s: %s result %v, sequential fold is %v", r.path(), kernel, j.Result, w)
			}
		}
		return nil
	}
	if len(r.kernels) == 1 {
		return &resp, check(r.kernels[0], resp.Results, r.width)
	}
	if len(resp.Pipeline) != len(r.kernels) {
		return nil, fmt.Errorf("loopd-http: %s: %d pipeline stages, want %d", r.path(), len(resp.Pipeline), len(r.kernels))
	}
	for i, k := range r.kernels {
		if resp.Pipeline[i].Workload != k {
			return nil, fmt.Errorf("loopd-http: %s: stage %d ran %q", r.path(), i, resp.Pipeline[i].Workload)
		}
		if err := check(k, resp.Pipeline[i].Results, r.width); err != nil {
			return nil, err
		}
	}
	return &resp, nil
}

// checkTenants requires both tenants to have had jobs served.
func checkTenants(served map[string]int64) error {
	for _, t := range []string{tenantA, tenantB} {
		if served[t] <= 0 {
			return fmt.Errorf("loopd-http: tenant %q was served no jobs", t)
		}
	}
	return nil
}

// selfTest shows that each check accepts a genuine output and rejects a
// corrupted one. It returns one line per case and an error naming every
// check that failed to do either.
func selfTest() ([]string, error) {
	var lines []string
	var bad int
	expect := func(name string, accept, reject error) {
		ok := accept == nil && reject != nil
		if !ok {
			bad++
		}
		lines = append(lines, fmt.Sprintf("%-28s accepts genuine: %-5v rejects corrupted: %v (%v)", name, accept == nil, reject != nil, reject))
	}

	got, want, area, mass0, err := mpdataFieldCheck(5)
	if err != nil {
		return nil, err
	}
	flipped := append([]float64(nil), got...)
	flipped[len(flipped)/2] = math.Nextafter(flipped[len(flipped)/2], math.Inf(1))
	expect("mpdata field bit-for-bit", checkField(got, want, area, mass0), checkField(flipped, want, area, mass0))
	// Scaling the field keeps it equal to a reference scaled the same way,
	// so only the mass check can reject it.
	scaled, scaledWant := append([]float64(nil), got...), append([]float64(nil), want...)
	for p := range scaled {
		scaled[p] *= 1.001
		scaledWant[p] *= 1.001
	}
	expect("mpdata mass conservation", checkField(got, want, area, mass0), checkField(scaled, scaledWant, area, mass0))

	in, err := newEdgeInput(1)
	if err != nil {
		return nil, err
	}
	sum := in.sum(0, in.edges(), 0)
	expect("jobs reduction", checkSum(sum, sum), checkSum(sum+1, sum))
	n := in.size(jobKind{coarse: true})
	vals, cnt := make([]float64, n), make([]uint32, n)
	in.write(0, in.edges(), vals, cnt)
	in.write(0, n, vals, cnt)
	writes, visited := [2]int{1, 1}, int64(in.edges()+n)
	dup := append([]uint32(nil), cnt...)
	dup[7]++
	expect("jobs write coverage", checkCoverage(cnt, visited, writes, in.edges()), checkCoverage(dup, visited, writes, in.edges()))
	// A chunk run twice at once whose second count was lost: the
	// per-index counts look right, the iteration total does not.
	expect("jobs write iteration total", checkCoverage(cnt, visited, writes, in.edges()), checkCoverage(cnt, visited+64, writes, in.edges()))
	wrong := append([]float64(nil), vals...)
	wrong[n-1]++
	expect("jobs write values", checkWrites(vals, cnt, in), checkWrites(wrong, cnt, in))

	wantK := map[string]float64{"mpdata": 1234.5, "linreg": 99}
	single := httpReq{kernels: []string{"linreg"}, width: 2, tenant: tenantA}
	body := []byte(`{"workload":"linreg","jobs":2,"wall_seconds":0.001,"results":[{"result":99},{"result":99}]}`)
	badBody := []byte(`{"workload":"linreg","jobs":2,"wall_seconds":0.001,"results":[{"result":99},{"result":98}]}`)
	_, ok := checkResponse(200, body, single, wantK)
	_, status := checkResponse(500, body, single, wantK)
	expect("loopd status 200", ok, status)
	_, result := checkResponse(200, badBody, single, wantK)
	expect("loopd job result", ok, result)
	pipe := httpReq{kernels: []string{"mpdata", "linreg"}, width: 1, tenant: tenantB}
	pBody := []byte(`{"jobs":2,"wall_seconds":0.001,"pipeline":[{"workload":"mpdata","results":[{"result":1234.5}]},{"workload":"linreg","results":[{"result":99}]}]}`)
	pBad := []byte(`{"jobs":2,"wall_seconds":0.001,"pipeline":[{"workload":"mpdata","results":[{"result":1234.6}]},{"workload":"linreg","results":[{"result":99}]}]}`)
	_, pOK := checkResponse(200, pBody, pipe, wantK)
	_, pErr := checkResponse(200, pBad, pipe, wantK)
	expect("loopd pipeline result", pOK, pErr)
	expect("loopd both tenants served", checkTenants(map[string]int64{tenantA: 3, tenantB: 1}), checkTenants(map[string]int64{tenantA: 4}))

	if bad > 0 {
		return lines, fmt.Errorf("%d checks did not accept the genuine output and reject the corrupted one", bad)
	}
	return lines, nil
}
