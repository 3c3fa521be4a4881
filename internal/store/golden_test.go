package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/netmeasure/muststaple/internal/scanner"
)

// TestSegmentFormatsGolden pins the on-disk bytes of every framed-segment
// kind — observation log (rotated, compacted, and torn by the crash
// failpoint), checkpoints, report log and corpus spill — to SHA-256
// digests of a fixed write sequence. A change to framing, headers, names
// or payload codecs shows up here as a digest mismatch.
func TestSegmentFormatsGolden(t *testing.T) {
	root := t.TempDir()

	// Observation log: rounds spread over several 512-byte segments,
	// checkpointed every round.
	obs := filepath.Join(root, "obs")
	s, err := Open(obs, Options{SegmentSize: 512, NoSync: true, CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	appendRounds(t, s, 6, 4)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The same log written again, then compacted under a larger
	// threshold: merged segments carry a rewritten header.
	compacted := filepath.Join(root, "compact")
	s, err = Open(compacted, Options{SegmentSize: 512, NoSync: true, CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	appendRounds(t, s, 6, 4)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(compacted, Options{SegmentSize: 4096, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The crash failpoint's torn trailing record.
	crashed := filepath.Join(root, "crash")
	s, err = Open(crashed, Options{NoSync: true, CheckpointEvery: 1, CrashAfterRounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	appendRounds(t, s, 1, 3)
	at := round0.Add(time.Hour)
	if err := s.AppendRound(at, []scanner.Observation{obsAt(at, 0, 0), obsAt(at, 1, 1), obsAt(at, 2, 2)}); err == nil {
		t.Fatal("crash failpoint did not fire")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Report log.
	rpt := filepath.Join(root, "rpt")
	l, err := CreateReportLog(rpt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := l.Append([]byte(fmt.Sprintf("report-%03d-%s", i, strings.Repeat("y", i%13)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Corpus spill: three segments.
	cor := filepath.Join(root, "cor")
	for idx := 0; idx < 3; idx++ {
		recs := corpusFixture()
		for i := range recs {
			recs[i].CA += fmt.Sprintf("-%d", idx)
		}
		writeCorpusSegment(t, cor, idx, recs)
	}

	got := map[string]string{}
	for _, sub := range []string{"obs", "compact", "crash", "rpt", "cor"} {
		entries, err := os.ReadDir(filepath.Join(root, sub))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			b, err := os.ReadFile(filepath.Join(root, sub, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			got[sub+"/"+e.Name()] = hex.EncodeToString(sum[:])
		}
	}

	want := map[string]string{
		"compact/ckpt-0000000000000006.ckpt": "9ec53a2bc58dd65ae5a2f93b441390304c9c0a6b20ab18f860e9f0d04bc50c38",
		"compact/seg-000000.log":             "0ed0fdc7e2f24aad2e1281076cd9ef257b2ed25381be5b3eb78042361e157804",
		"compact/seg-000005.log":             "d8cb795d4fcd64331843ebe0f0b89b75c453e7e3878d4b5fb85a11275dd3910c",
		"cor/cor-000000.seg":                 "eae4ee127275b5936f01d721c4f2e63148188dd8e26a9a75f56391bb76e2a68b",
		"cor/cor-000001.seg":                 "a5851d6ca38eb5f4be616d9163ae9e7362c290bda14ac3d2572e22cb446c20f1",
		"cor/cor-000002.seg":                 "980d111d8fc52d307e81e48c25079e434d8a480af253ea4f0ed9b300d1139e64",
		"crash/ckpt-0000000000000001.ckpt":   "0275f6bc03f54190c518d55dda339f51c2c0afe08cbf2b56c4ec5e4c556db7c3",
		"crash/seg-000000.log":               "a6f1f668ccd03fd2b913b663e8fab82a8d245087a4cdb1fad394b593d037d32f",
		"obs/ckpt-0000000000000005.ckpt":     "467531c6d9997f0095e8a7966a69cb27a558660a1aa3335cd4ebf1aa5cc9694e",
		"obs/ckpt-0000000000000006.ckpt":     "9ec53a2bc58dd65ae5a2f93b441390304c9c0a6b20ab18f860e9f0d04bc50c38",
		"obs/seg-000000.log":                 "b977fd91bd9f6fe90a9779af7a0a7472bc13694c9eb46d25252a401188f45456",
		"obs/seg-000001.log":                 "7e3b6fda8b720cae90e8931e56c51e570bd7dd1d448bc407d2edc719f254d2bb",
		"obs/seg-000002.log":                 "b521798b12e1b53ec70d123b4097501afb587c3663a041d560f2b6c0c17984cd",
		"obs/seg-000003.log":                 "7214cbe02155ed9a09ecbc838fc2fecc0cf94c5114951ff9917326d385b2ff2a",
		"obs/seg-000004.log":                 "886fd926fcf1e4624332f4123561c486c68662de3fc1185c4efae9b32fcaebed",
		"obs/seg-000005.log":                 "d8cb795d4fcd64331843ebe0f0b89b75c453e7e3878d4b5fb85a11275dd3910c",
		"rpt/rpt-000000.seg":                 "63894ddc84cc9550678e8e7da3c01ade86e02c519710866dd70bd5cfc76b775e",
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if want[name] != got[name] {
			t.Errorf("%s: sha256 %s, want %q", name, got[name], want[name])
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: missing", name)
		}
	}
}
