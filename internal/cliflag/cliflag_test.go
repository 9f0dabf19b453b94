package cliflag

import (
	"runtime"
	"strings"
	"testing"
)

func TestBoundedWorkers(t *testing.T) {
	max := runtime.GOMAXPROCS(0)
	cases := []struct {
		name     string
		v        int
		explicit bool
		want     int
		wantWarn bool
		wantErr  bool
	}{
		{"negative", -1, true, 0, false, true},
		{"negative implicit", -3, false, 0, false, true},
		{"explicit zero", 0, true, 0, false, true},
		{"implicit zero defaults to serial", 0, false, 1, false, false},
		{"one", 1, true, 1, false, false},
		{"at cap", max, true, max, false, false},
		{"above cap", max + 5, true, max, true, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n, warn, err := BoundedWorkers("parallel", c.v, c.explicit)
			if (err != nil) != c.wantErr {
				t.Fatalf("BoundedWorkers(%d, %v) err = %v, want err %v", c.v, c.explicit, err, c.wantErr)
			}
			if err != nil {
				if !strings.Contains(err.Error(), "-parallel") {
					t.Fatalf("error %q does not name the flag", err)
				}
				return
			}
			if n != c.want {
				t.Fatalf("BoundedWorkers(%d, %v) = %d, want %d", c.v, c.explicit, n, c.want)
			}
			if (warn != "") != c.wantWarn {
				t.Fatalf("BoundedWorkers(%d, %v) warning = %q, want warning %v", c.v, c.explicit, warn, c.wantWarn)
			}
		})
	}
}

func TestCheckCount(t *testing.T) {
	cases := []struct {
		name     string
		v        int
		explicit bool
		max      int
		want     int
		wantErr  bool
	}{
		{"negative", -2, true, 64, 0, true},
		{"explicit zero", 0, true, 64, 0, true},
		{"implicit zero means default", 0, false, 64, 0, false},
		{"in range", 4, true, 64, 4, false},
		{"at max", 64, true, 64, 64, false},
		{"above max is an error, never capped", 65, true, 64, 0, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n, err := CheckCount("rack", c.v, c.explicit, c.max)
			if (err != nil) != c.wantErr {
				t.Fatalf("CheckCount(%d, %v, %d) err = %v, want err %v", c.v, c.explicit, c.max, err, c.wantErr)
			}
			if err != nil {
				if !strings.Contains(err.Error(), "-rack") {
					t.Fatalf("error %q does not name the flag", err)
				}
				return
			}
			if n != c.want {
				t.Fatalf("CheckCount(%d, %v, %d) = %d, want %d", c.v, c.explicit, c.max, n, c.want)
			}
		})
	}
}

func TestCheckWorkersStructuredWarning(t *testing.T) {
	max := runtime.GOMAXPROCS(0)
	n, w, err := CheckWorkers("parallel", max+3, true)
	if err != nil {
		t.Fatalf("CheckWorkers: %v", err)
	}
	if n != max {
		t.Fatalf("CheckWorkers capped to %d, want %d", n, max)
	}
	if w == nil {
		t.Fatal("CheckWorkers returned nil warning for an above-cap count")
	}
	if w.Flag != "parallel" || w.Requested != max+3 || w.Capped != max {
		t.Fatalf("warning fields = %+v, want {parallel %d %d}", w, max+3, max)
	}
	if !strings.Contains(w.String(), "-parallel") {
		t.Fatalf("warning string %q does not name the flag", w.String())
	}
	if _, w, _ := CheckWorkers("parallel", 1, true); w != nil {
		t.Fatalf("CheckWorkers(1) warning = %+v, want nil", w)
	}
}
