package core

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"
)

func sampleSpec() *JobSpec {
	return &JobSpec{
		Name:        "canny-night",
		Tenant:      "vision",
		Class:       PriorityHigh,
		Program:     "canny",
		Args:        map[string]string{"scene": "night", "stage1": "3"},
		Seed:        42,
		Budget:      1500,
		Incremental: true,
		Share:       2,
		MaxParallel: 4,
		Fault: &FaultPolicy{
			SampleTimeout: 50 * time.Millisecond,
			RegionBudget:  time.Second,
			MaxAttempts:   3,
			Backoff:       time.Millisecond,
			BackoffFactor: 2,
			MaxBackoff:    100 * time.Millisecond,
			DegradeEmpty:  true,
		},
		Checkpoint: &CheckpointSpec{Every: 2, MinSlots: 3},
	}
}

// sampleSpecJSON is sampleSpec's JSON on the HTTP API. The bytes are
// pinned: they predate FaultPolicy doubling as the spec's fault field and
// must not change with it.
const sampleSpecJSON = `{"name":"canny-night","tenant":"vision","class":"high","program":"canny",` +
	`"args":{"scene":"night","stage1":"3"},"seed":42,"budget":1500,"incremental":true,"share":2,` +
	`"max_parallel":4,"fault":{"sample_timeout":50000000,"region_budget":1000000000,"max_attempts":3,` +
	`"backoff":1000000,"backoff_factor":2,"max_backoff":100000000,"degrade_empty":true},` +
	`"checkpoint":{"every":2,"min_slots":3}}`

// legacySpecHex is a spec ({Name: "legacy", Program: "tune", Seed: 44})
// in the retired binary encoding: frame version 1 around a hand-rolled
// varint body.
const legacySpecHex = "57424a53010000001e01066c656761637900000474756e6500580000" +
	"0000000000000000000000f5aa2602be8a6c77"

// frameSpecBody frames an arbitrary body the way EncodeSpec frames a
// spec's JSON.
func frameSpecBody(t testing.TB, body string) []byte {
	t.Helper()
	data, err := specFrame.Seal(append(specFrame.Start(nil), body...))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestSpecJSONWire(t *testing.T) {
	got, err := json.Marshal(sampleSpec())
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != sampleSpecJSON {
		t.Fatalf("spec JSON changed:\n got %s\nwant %s", got, sampleSpecJSON)
	}
	back, err := ParseSpec([]byte(sampleSpecJSON))
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if !reflect.DeepEqual(back, sampleSpec()) {
		t.Fatalf("JSON round trip mismatch:\n got %+v\nwant %+v", back, sampleSpec())
	}
}

func TestParseSpecRefusals(t *testing.T) {
	cases := []struct{ name, body string }{
		{"malformed", `{"name": `},
		{"unknown field", `{"name":"a","program":"p","seed":1,"priority":"high"}`},
		{"trailing object", `{"name":"a","program":"p","seed":1}{"garbage":true}`},
		{"trailing junk", `{"name":"a","program":"p","seed":1} x`},
		{"unknown class", `{"name":"a","program":"p","seed":1,"class":"urgent"}`},
		{"invalid spec", `{"name":"","program":"p","seed":1}`},
	}
	for _, tc := range cases {
		if _, err := ParseSpec([]byte(tc.body)); !errors.Is(err, ErrSpecInvalid) {
			t.Errorf("%s: got %v, want ErrSpecInvalid", tc.name, err)
		}
	}
	if _, err := ParseSpec([]byte(`{"name":"a","program":"p","spec_version":9}`)); !errors.Is(err, ErrSpecVersion) {
		t.Errorf("future spec_version: got %v, want ErrSpecVersion", err)
	}
	if _, err := ParseSpec([]byte(" {\"name\":\"a\",\"program\":\"p\"}\n")); err != nil {
		t.Errorf("surrounding whitespace refused: %v", err)
	}
}

func TestSpecRoundTrip(t *testing.T) {
	want := sampleSpec()
	data, err := EncodeSpec(want)
	if err != nil {
		t.Fatalf("EncodeSpec: %v", err)
	}
	got, err := DecodeSpec(data)
	if err != nil {
		t.Fatalf("DecodeSpec: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}

	// Minimal spec: only the required fields, nil policies.
	min := &JobSpec{Name: "j", Program: "p", Seed: 7}
	data, err = EncodeSpec(min)
	if err != nil {
		t.Fatalf("EncodeSpec(min): %v", err)
	}
	got, err = DecodeSpec(data)
	if err != nil {
		t.Fatalf("DecodeSpec(min): %v", err)
	}
	if !reflect.DeepEqual(got, min) {
		t.Fatalf("minimal round trip mismatch:\n got %+v\nwant %+v", got, min)
	}
}

func TestSpecEncodingCanonical(t *testing.T) {
	a := sampleSpec()
	b := sampleSpec()
	// Rebuild the args map in a different insertion order; the encoding
	// must not depend on it.
	b.Args = map[string]string{"stage1": "3", "scene": "night"}
	da, err := EncodeSpec(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := EncodeSpec(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(da) != string(db) {
		t.Fatal("equal specs encoded to different bytes")
	}
}

func TestSpecDecodeRefusals(t *testing.T) {
	good, err := EncodeSpec(sampleSpec())
	if err != nil {
		t.Fatal(err)
	}

	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte("XXXX"), good[4:]...)
		if _, err := DecodeSpec(bad); !errors.Is(err, ErrSpecCorrupt) {
			t.Fatalf("got %v, want ErrSpecCorrupt", err)
		}
	})
	t.Run("future version", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[4] = byte(specFrame.Version + 1) // single-byte uvarint
		if _, err := DecodeSpec(bad); !errors.Is(err, ErrSpecVersion) {
			t.Fatalf("got %v, want ErrSpecVersion", err)
		}
	})
	t.Run("legacy binary encoding", func(t *testing.T) {
		legacy, _ := hex.DecodeString(legacySpecHex)
		if _, err := DecodeSpec(legacy); !errors.Is(err, ErrSpecVersion) {
			t.Fatalf("got %v, want ErrSpecVersion", err)
		}
	})
	t.Run("unknown field in body", func(t *testing.T) {
		bad := frameSpecBody(t, `{"name":"j","program":"p","seed":7,"extra":true}`)
		if _, err := DecodeSpec(bad); !errors.Is(err, ErrSpecCorrupt) {
			t.Fatalf("got %v, want ErrSpecCorrupt", err)
		}
	})
	t.Run("non-canonical body", func(t *testing.T) {
		bad := frameSpecBody(t, `{"seed":7,"name":"j","program":"p"}`)
		if _, err := DecodeSpec(bad); !errors.Is(err, ErrSpecCorrupt) {
			t.Fatalf("got %v, want ErrSpecCorrupt", err)
		}
	})
	t.Run("flipped body byte", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[len(bad)/2] ^= 0x40
		if _, err := DecodeSpec(bad); !errors.Is(err, ErrSpecCorrupt) {
			t.Fatalf("got %v, want ErrSpecCorrupt", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for cut := 1; cut < len(good); cut += 7 {
			if _, err := DecodeSpec(good[:cut]); err == nil {
				t.Fatalf("decode of %d/%d bytes succeeded", cut, len(good))
			}
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, err := DecodeSpec(nil); !errors.Is(err, ErrSpecCorrupt) {
			t.Fatalf("got %v, want ErrSpecCorrupt", err)
		}
	})
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*JobSpec)
	}{
		{"empty name", func(s *JobSpec) { s.Name = "" }},
		{"path separator in name", func(s *JobSpec) { s.Name = "a/b" }},
		{"dotdot in name", func(s *JobSpec) { s.Name = "a..b" }},
		{"empty program", func(s *JobSpec) { s.Program = "" }},
		{"unknown class", func(s *JobSpec) { s.Class = 9 }},
		{"negative share", func(s *JobSpec) { s.Share = -1 }},
		{"negative max_parallel", func(s *JobSpec) { s.MaxParallel = -2 }},
		{"negative budget", func(s *JobSpec) { s.Budget = -1 }},
		{"negative checkpoint every", func(s *JobSpec) { s.Checkpoint = &CheckpointSpec{Every: -1} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := sampleSpec()
			tc.mut(s)
			err := s.Validate()
			if !errors.Is(err, ErrSpecInvalid) {
				t.Fatalf("Validate() = %v, want ErrSpecInvalid", err)
			}
			if _, err := EncodeSpec(s); err == nil {
				t.Fatal("EncodeSpec accepted an invalid spec")
			}
		})
	}
	if err := sampleSpec().Validate(); err != nil {
		t.Fatalf("valid spec refused: %v", err)
	}
}

func TestPriorityClassJSON(t *testing.T) {
	for _, c := range []PriorityClass{PriorityLow, PriorityNormal, PriorityHigh} {
		data, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("marshal %v: %v", c, err)
		}
		var got PriorityClass
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if got != c {
			t.Fatalf("JSON round trip: got %v, want %v", got, c)
		}
	}
	var c PriorityClass
	if err := json.Unmarshal([]byte(`""`), &c); err != nil || c != PriorityNormal {
		t.Fatalf("empty class: got %v, %v; want normal", c, err)
	}
	if err := json.Unmarshal([]byte(`"urgent"`), &c); !errors.Is(err, ErrSpecInvalid) {
		t.Fatalf("unknown class: got %v, want ErrSpecInvalid", err)
	}
}

// TestNewJobSpecFields checks that every job setting a spec declares
// reaches the job NewJob creates, as the value the runtime consults.
func TestNewJobSpecFields(t *testing.T) {
	rtFault := FaultPolicy{MaxAttempts: 5}
	rt := NewRuntime(RuntimeOptions{MaxPool: 4, Fault: rtFault})
	specFault := FaultPolicy{SampleTimeout: time.Second, DegradeEmpty: true}
	cases := []struct {
		name string
		spec JobSpec
		got  func(*Tuner) any
		want any
	}{
		{"name", JobSpec{Name: "spec-job"}, func(j *Tuner) any { return j.JobName() }, "spec-job"},
		{"seed", JobSpec{Seed: 11}, func(j *Tuner) any { return j.spec.Seed }, int64(11)},
		{"budget", JobSpec{Budget: 2.5}, func(j *Tuner) any { return j.spec.Budget }, 2.5},
		{"incremental", JobSpec{Incremental: true}, func(j *Tuner) any { return j.spec.Incremental }, true},
		{"share", JobSpec{Share: 3}, func(j *Tuner) any { return j.job.Share() }, 3},
		{"default share", JobSpec{}, func(j *Tuner) any { return j.job.Share() }, 1},
		{"max parallel", JobSpec{MaxParallel: 2}, func(j *Tuner) any { return j.job.Cap() }, 2},
		{"fault", JobSpec{Fault: &specFault}, func(j *Tuner) any { return j.fault }, specFault},
		{"default fault", JobSpec{}, func(j *Tuner) any { return j.fault }, rtFault},
		{"checkpoint every", JobSpec{Checkpoint: &CheckpointSpec{Every: 3}},
			func(j *Tuner) any { return j.rec.every }, 3},
		{"checkpoint min slots", JobSpec{Checkpoint: &CheckpointSpec{MinSlots: 4}},
			func(j *Tuner) any { return j.rec.minSlots }, 4},
		{"checkpoint defaults", JobSpec{Checkpoint: &CheckpointSpec{}},
			func(j *Tuner) any { return [2]int{j.rec.every, j.rec.minSlots} }, [2]int{1, 2}},
		{"no checkpoint", JobSpec{}, func(j *Tuner) any { return j.rec == nil }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			job := rt.NewJob(tc.spec, JobEnv{})
			defer job.Close()
			if got := tc.got(job); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("got %v, want %v", got, tc.want)
			}
		})
	}
}

func TestNoteQueuedJobsLoadStats(t *testing.T) {
	rt := NewRuntime(RuntimeOptions{MaxPool: 2})
	rt.NoteQueuedJobs(false, 1)
	rt.NoteQueuedJobs(true, 1)
	rt.NoteQueuedJobs(true, 1)
	ls := rt.Load()
	if ls.JobsQueued != 3 || ls.HighJobsQueued != 2 {
		t.Fatalf("JobsQueued=%d HighJobsQueued=%d, want 3 and 2", ls.JobsQueued, ls.HighJobsQueued)
	}
	rt.NoteQueuedJobs(true, -2)
	rt.NoteQueuedJobs(false, -1)
	ls = rt.Load()
	if ls.JobsQueued != 0 || ls.HighJobsQueued != 0 {
		t.Fatalf("after drain: JobsQueued=%d HighJobsQueued=%d, want 0 and 0", ls.JobsQueued, ls.HighJobsQueued)
	}
}

// FuzzSpecDecode throws arbitrary bytes at DecodeSpec. Malformed input must
// fail with a typed spec error, never a panic, and input that decodes must
// be exactly what EncodeSpec writes for the decoded spec.
func FuzzSpecDecode(f *testing.F) {
	valid, err := EncodeSpec(sampleSpec())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	for _, cut := range []int{0, 4, 5, 9, len(valid) / 2, len(valid) - 8, len(valid) - 1} {
		f.Add(valid[:cut])
	}
	legacy, _ := hex.DecodeString(legacySpecHex)
	f.Add(legacy)
	f.Add(frameSpecBody(f, `{"name":"j","program":"p","seed":7,"extra":true}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSpec(data)
		if err != nil {
			if !errors.Is(err, ErrSpecCorrupt) && !errors.Is(err, ErrSpecVersion) && !errors.Is(err, ErrSpecInvalid) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		enc, err := EncodeSpec(s)
		if err != nil {
			t.Fatalf("re-encode of decoded spec: %v", err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("decoded spec re-encodes to different bytes:\n got %x\nwant %x", enc, data)
		}
	})
}
