package campaign

import "testing"

// maxFuzzPoints bounds grid expansion during fuzzing: the cartesian
// product of fuzzer-supplied axes can be astronomically large, and Expand
// materializes it.
const maxFuzzPoints = 10_000

// FuzzSpecParse fuzzes the campaign spec grammar: parsing must never
// panic, and any spec that parses and validates must expand to a
// well-formed grid (sequential point IDs, every axis value concrete).
func FuzzSpecParse(f *testing.F) {
	for _, s := range []string{
		"campaign \"t\" {\n}\n",
		"campaign \"t\" {\n\tseed 7\n\treps 2\n\tranks 2, 4\n\tdevice hdd, ssd\n}\n",
		"campaign \"t\" {\n\tworkload checkpoint\n\tburst-buffer false, true\n\tblock-size 1MB\n}\n",
		"campaign \"t\" {\n\tworkload checkpoint\n\tburstbuffer false, true\n\tblock-size 1MB\n}\n",
		"campaign \"t\" {\n\ttransfer-size 256KB, 1MB # comment\n\tfaults \"\", \"ostcrash:1@5ms\"\n}\n",
		"campaign \"t\" {\n\tworkload checkpoint\n\ttier direct, bb, nodelocal\n\tblock-size 1MB\n}\n",
		"campaign \"t\" {\n\ttier warp\n}\n",
		"campaign \"t\" {\n\tcompress none, lz, deflate\n\tdevice hdd, nvme\n}\n",
		"campaign \"t\" {\n\tworkload checkpoint\n\tcompress sz\n\ttier bb\n\tblock-size 4MB\n}\n",
		"campaign \"t\" {\n\ttier warp\n\tcompress brotli\n}\n",
		"campaign \"broken\" {",
		"campaign \"t\" {\n\tranks 0\n}\n",
		"not a campaign",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		s, err := ParseSpec(src)
		if err != nil {
			return
		}
		s = s.withDefaults()
		if err := s.Validate(); err != nil {
			return
		}
		runs := s.Runs()
		if runs/s.Reps > maxFuzzPoints {
			return
		}
		points := s.Expand()
		if len(points)*s.Reps != runs {
			t.Fatalf("Expand returned %d points x %d reps, Runs says %d", len(points), s.Reps, runs)
		}
		for i, p := range points {
			if p.ID != i {
				t.Fatalf("point %d has ID %d; IDs must be sequential", i, p.ID)
			}
			if p.Ranks <= 0 || p.StripeCount <= 0 || p.StripeSize <= 0 {
				t.Fatalf("validated spec expanded to a degenerate point: %+v", p)
			}
		}
	})
}
