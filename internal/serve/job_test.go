package serve

import (
	"strings"
	"testing"
)

// TestSpecDigestStableWithoutRackFields pins the compatibility contract of
// the rack JobSpec fields: a spec that never sets Rack or Fabric must hash
// to the exact digest it had before the fields existed, so result caches and
// journals recorded by older servers keep resolving. The expected value is
// the digest of {"experiment":"fig12","seed":1,"quick":true,"policy":"",
// "faults":"","trace_format":"jsonl"} — frozen, not recomputed, so a field
// added without omitempty fails this test instead of silently splitting keys.
func TestSpecDigestStableWithoutRackFields(t *testing.T) {
	spec, err := JobSpec{Experiment: "fig12", Quick: true}.normalized()
	if err != nil {
		t.Fatal(err)
	}
	const frozen = "55f302e28b25736410415c7f52817157a34fc26381ce86439fb61c15b5d5e89f"
	if got := spec.digest(); got != frozen {
		t.Fatalf("zero-rack spec digest %s != pre-rack digest %s", got, frozen)
	}

	withRack := spec
	withRack.Rack = 4
	withRack.Fabric = "policy=pack"
	if withRack.digest() == spec.digest() {
		t.Fatal("rack fields do not influence the digest; distinct runs would share artifacts")
	}
}

// TestSpecValidatesRackFields covers the admission-time rack checks: counts
// outside [0, rack.MaxExpanders] and fabric grammar errors must reject the
// spec with a message naming the problem, never reach a worker.
func TestSpecValidatesRackFields(t *testing.T) {
	base := JobSpec{Experiment: "rack", Quick: true}
	if _, err := base.normalized(); err != nil {
		t.Fatalf("plain rack spec rejected: %v", err)
	}

	bad := base
	bad.Rack = -1
	if _, err := bad.normalized(); err == nil || !strings.Contains(err.Error(), "rack") {
		t.Errorf("rack=-1 accepted (err %v)", err)
	}
	bad = base
	bad.Rack = 1 << 20
	if _, err := bad.normalized(); err == nil || !strings.Contains(err.Error(), "rack") {
		t.Errorf("huge rack accepted (err %v)", err)
	}
	bad = base
	bad.Fabric = "warp=9"
	if _, err := bad.normalized(); err == nil || !strings.Contains(err.Error(), "warp") {
		t.Errorf("unknown fabric key accepted (err %v)", err)
	}

	good := base
	good.Rack = 4
	good.Fabric = "hop=200ns;gbs=16;policy=pack"
	if _, err := good.normalized(); err != nil {
		t.Errorf("valid rack spec rejected: %v", err)
	}
}

// TestSpecRejectsInvalidUTF8: a free-text field that is not valid UTF-8 is
// refused at admission. JSON would carry it as U+FFFD, so the journaled
// spec would hash to another digest than the one the job ran under.
func TestSpecRejectsInvalidUTF8(t *testing.T) {
	for _, spec := range []JobSpec{
		{Experiment: "fig12", Quick: true, Policy: "reserve=3\xff"},
		{Experiment: "faults", Quick: true, Faults: "storm:ch0/rk0\xff"},
		{Experiment: "rack", Quick: true, Fabric: "policy=pack\xff"},
	} {
		if _, err := spec.normalized(); err == nil || !strings.Contains(err.Error(), "UTF-8") {
			t.Errorf("%+v accepted (err %v)", spec, err)
		}
	}
}
