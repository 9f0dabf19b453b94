package serve

import (
	"encoding/json"
	"testing"
)

// canonical is the part of a normalized spec the digest covers: the spec
// with its scheduling-only fields cleared.
func canonical(s JobSpec) JobSpec {
	s.TimeoutSec, s.Parallel, s.Force = 0, 0, false
	return s
}

// FuzzJobSpec feeds arbitrary field values to JobSpec admission. Nothing
// may panic, and every spec normalized accepts must be a fixed point of
// normalized, survive the JSON round trip a POST body and the journal take
// with its digest unchanged, and hash the same whatever its TimeoutSec,
// Parallel and Force. A second spec, the first with one digest field
// replaced by alt, must share the first's digest exactly when their
// canonical forms are equal. The seed corpus under
// testdata/fuzz/FuzzJobSpec holds specs from this package's tests.
func FuzzJobSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, experiment string, seed int64, quick bool, policy, faults string,
		rack int, fabric, format string, parallel int, timeout float64, force bool, field uint8, alt string) {
		spec, err := JobSpec{
			Experiment: experiment, Seed: seed, Quick: quick, Policy: policy, Faults: faults,
			Rack: rack, Fabric: fabric, TraceFormat: format,
			Parallel: parallel, TimeoutSec: timeout, Force: force,
		}.normalized()
		if err != nil {
			return
		}
		again, err := spec.normalized()
		if err != nil || again != spec {
			t.Fatalf("normalized is not idempotent: %+v -> %+v, %v", spec, again, err)
		}
		digest := spec.digest()

		body, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec %+v does not marshal: %v", spec, err)
		}
		var back JobSpec
		if err := json.Unmarshal(body, &back); err != nil {
			t.Fatalf("%s does not unmarshal: %v", body, err)
		}
		if back, err = back.normalized(); err != nil || back.digest() != digest {
			t.Fatalf("spec %+v round-trips through %s to %+v (%v), digest %s -> %s",
				spec, body, back, err, digest, back.digest())
		}

		sched := spec
		sched.TimeoutSec, sched.Parallel, sched.Force = timeout+30, parallel+3, !force
		if sched.digest() != digest {
			t.Fatalf("scheduling fields change the digest of %+v", spec)
		}

		other := spec
		switch field % 8 {
		case 0:
			other.Experiment = alt
		case 1:
			other.Seed = seed ^ int64(len(alt))
		case 2:
			other.Quick = len(alt)%2 == 1
		case 3:
			other.Policy = alt
		case 4:
			other.Faults = alt
		case 5:
			other.Rack = len(alt)
		case 6:
			other.Fabric = alt
		case 7:
			other.TraceFormat = alt
		}
		if other, err = other.normalized(); err != nil {
			return
		}
		if same := canonical(other) == canonical(spec); (other.digest() == digest) != same {
			t.Fatalf("specs %+v and %+v: canonical forms equal %v, digests equal %v",
				spec, other, same, other.digest() == digest)
		}
	})
}
