package experiment

import (
	"strings"
	"testing"
)

func TestIDsComplete(t *testing.T) {
	t.Parallel()
	ids := IDs()
	if len(ids) != 27 {
		t.Fatalf("suite has %d experiments, want 27", len(ids))
	}
	if ids[0] != "E1" || ids[26] != "E27" {
		t.Fatalf("ids = %v", ids)
	}
}

func TestRunExperimentUnknown(t *testing.T) {
	t.Parallel()
	if _, err := RunExperiment("E99", ScaleSmall); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if _, err := RunExperiment("E1", Scale(0)); err == nil {
		t.Fatal("invalid scale accepted")
	}
}

func TestRunExperimentCaseInsensitive(t *testing.T) {
	t.Parallel()
	rep, err := RunExperiment("e1", ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "E1" {
		t.Fatalf("id = %s", rep.ID)
	}
}

// TestSuiteShapesHold is the headline integration test: every experiment in
// the suite must run at small scale and report that the paper's claimed
// shape holds. This is the executable form of the tables
// `go run ./cmd/hhbench -exp <id>` prints.
func TestSuiteShapesHold(t *testing.T) {
	t.Parallel()
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			rep, err := RunExperiment(id, ScaleSmall)
			if err != nil {
				t.Fatalf("%s failed: %v", id, err)
			}
			if !rep.Pass {
				t.Errorf("%s: claimed shape violated:\n%s", id, rep)
			}
			out := rep.String()
			if !strings.Contains(out, rep.ID) || !strings.Contains(out, "paper claim") {
				t.Errorf("%s: malformed report:\n%s", id, out)
			}
			if len(rep.Tables) == 0 {
				t.Errorf("%s: no tables rendered", id)
			}
		})
	}
}
