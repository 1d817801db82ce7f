package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

func TestCountersAdvance(t *testing.T) {
	before := Executions.Value()
	Executions.Add(3)
	if got := Executions.Value(); got != before+3 {
		t.Fatalf("Executions = %d, want %d", got, before+3)
	}
}

func TestUnitAccounting(t *testing.T) {
	beforeUnits := unitsDone.Load()
	beforeBusy := busyNS.Load()
	h := UnitStart()
	if busyWorkers.Load() < 1 {
		t.Fatal("busyWorkers not incremented")
	}
	UnitEnd(h)
	if unitsDone.Load() != beforeUnits+1 {
		t.Fatal("unitsDone not incremented")
	}
	if busyNS.Load() < beforeBusy {
		t.Fatal("busyNS went backwards")
	}
}

func TestUnitStartEndZeroAllocs(t *testing.T) {
	if allocs := testing.AllocsPerRun(1000, func() { UnitEnd(UnitStart()) }); allocs != 0 {
		t.Fatalf("UnitStart/UnitEnd allocate %.1f/op, want 0", allocs)
	}
}

func TestServeExposesVarsAndPprof(t *testing.T) {
	addr, shutdown, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown() //nolint:errcheck

	Executions.Add(1)
	resp, err := http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var vars map[string]any
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v\n%s", err, body)
	}
	for _, key := range []string{
		"ctsan.executions_completed", "ctsan.points_completed",
		"ctsan.leases_granted", "ctsan.leases_completed", "ctsan.checkpoint_appends", "ctsan.checkpoint_syncs", "ctsan.checkpoint_bytes",
		"ctsan.exec_per_sec", "ctsan.worker_utilization",
	} {
		if _, ok := vars[key]; !ok {
			t.Fatalf("/debug/vars missing %q", key)
		}
	}

	// pprof index must answer; a full profile capture is the CI smoke
	// step's job (it takes seconds).
	resp, err = http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	idx, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(idx), "profile") {
		t.Fatalf("/debug/pprof/ status %d body %q", resp.StatusCode, idx)
	}
}
