package blast

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestScoreMatrixSymmetric(t *testing.T) {
	for a := 0; a < 20; a++ {
		for b := 0; b < 20; b++ {
			if Score(a, b) != Score(b, a) {
				t.Fatalf("BLOSUM62 not symmetric at (%d,%d)", a, b)
			}
		}
	}
}

func TestScoreKnownValues(t *testing.T) {
	idx := func(r byte) int { return IndexOf(r) }
	cases := []struct {
		a, b byte
		want int
	}{
		{'A', 'A', 4}, {'W', 'W', 11}, {'C', 'C', 9},
		{'A', 'R', -1}, {'W', 'Y', 2}, {'I', 'V', 3},
		{'D', 'E', 2}, {'P', 'F', -4},
	}
	for _, c := range cases {
		if got := Score(idx(c.a), idx(c.b)); got != c.want {
			t.Errorf("Score(%c,%c) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	if Score(20, 5) != xScore || Score(5, 20) != xScore {
		t.Error("X scoring wrong")
	}
}

func TestScoreBytesUnknown(t *testing.T) {
	if ScoreBytes('!', 'A') != xScore {
		t.Fatal("unknown byte should score as X")
	}
	if ScoreBytes('a', 'A') != 4 {
		t.Fatal("lower case not accepted")
	}
}

func TestDiagonalDominance(t *testing.T) {
	// Identity must never score below any substitution for that residue —
	// a structural property of BLOSUM62 our tests of synthetic homology
	// rely on.
	for a := 0; a < 20; a++ {
		for b := 0; b < 20; b++ {
			if b != a && Score(a, b) >= Score(a, a) {
				t.Fatalf("Score(%d,%d)=%d >= diagonal %d", a, b, Score(a, b), Score(a, a))
			}
		}
	}
}

func TestEncodeDecode(t *testing.T) {
	seq := []byte("ARNDCQEGHILKMFPSTWYVX")
	enc := Encode(seq)
	dec := make([]byte, len(enc))
	for i, v := range enc {
		dec[i] = Alphabet[v]
	}
	if !bytes.Equal(dec, seq) {
		t.Fatalf("round trip %q -> %q", seq, dec)
	}
	if Encode([]byte("?"))[0] != 20 {
		t.Fatal("unknown residue should encode to X")
	}
}

func TestParseFASTA(t *testing.T) {
	in := `>q1 first query
MKVLAT
GHWY

>q2
aacd
`
	seqs, err := ParseFASTA(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 2 {
		t.Fatalf("parsed %d records", len(seqs))
	}
	if seqs[0].ID != "q1" || seqs[0].Description != "first query" {
		t.Fatalf("header parse: %+v", seqs[0])
	}
	if string(seqs[0].Residues) != "MKVLATGHWY" {
		t.Fatalf("residues = %q", seqs[0].Residues)
	}
	if string(seqs[1].Residues) != "aacd" {
		t.Fatalf("residues = %q", seqs[1].Residues)
	}
}

func TestParseFASTAErrors(t *testing.T) {
	for _, bad := range []string{
		"MKVL\n",       // data before header
		">\nMKVL\n",    // empty header
		">q1\nMK1VL\n", // invalid residue
	} {
		if _, err := ParseFASTA(strings.NewReader(bad)); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestFASTARoundTrip(t *testing.T) {
	seqs := []Sequence{
		{ID: "a", Description: "alpha", Residues: bytes.Repeat([]byte("MKVLATGHWY"), 20)},
		{ID: "b", Residues: []byte("AC")},
	}
	var buf bytes.Buffer
	if err := WriteFASTA(&buf, seqs); err != nil {
		t.Fatal(err)
	}
	got, err := ParseFASTA(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != "a" || got[0].Description != "alpha" {
		t.Fatalf("round trip headers: %+v", got)
	}
	if !bytes.Equal(got[0].Residues, seqs[0].Residues) || !bytes.Equal(got[1].Residues, seqs[1].Residues) {
		t.Fatal("round trip residues differ")
	}
}

func TestBuildDBIndex(t *testing.T) {
	db, err := BuildDB([]Sequence{
		{ID: "s1", Residues: []byte("MKVLMKVL")},
		{ID: "s2", Residues: []byte("MK")}, // shorter than k: unindexed
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if db.NumSequences() != 2 || db.residues != 10 {
		t.Fatalf("db stats: %d seqs %d residues", db.NumSequences(), db.residues)
	}
	key, ok := kmerKey(Encode([]byte("MKV")), 3)
	if !ok {
		t.Fatal("kmerKey failed")
	}
	if got := len(db.index[key]); got != 2 {
		t.Fatalf("MKV occurs %d times in index, want 2", got)
	}
}

func TestKmerKeyRejectsX(t *testing.T) {
	if _, ok := kmerKey(Encode([]byte("MXV")), 3); ok {
		t.Fatal("word with X indexed")
	}
}

func TestBuildDBValidation(t *testing.T) {
	if _, err := BuildDB([]Sequence{{ID: "", Residues: []byte("MKV")}}, 3); err == nil {
		t.Fatal("empty ID accepted")
	}
	if _, err := BuildDB(nil, 9); err == nil {
		t.Fatal("word size 9 accepted")
	}
}

func TestSelfHitScoresMaximally(t *testing.T) {
	seq := Sequence{ID: "self", Residues: []byte("MKVLATGHWYEDRNCQISPF")}
	db, err := BuildDB([]Sequence{seq, {ID: "other", Residues: []byte("GGGGGGGGGGGGGGGGGGGG")}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	hits, err := Search(db, seq, Params{MinReportScore: 1, MinUngappedScore: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 || hits[0].SubjectID != "self" {
		t.Fatalf("self hit missing: %+v", hits)
	}
	// Self alignment score = sum of diagonal scores.
	want := 0
	for _, r := range seq.Residues {
		want += ScoreBytes(r, r)
	}
	if hits[0].Score != want {
		t.Fatalf("self score = %d, want %d", hits[0].Score, want)
	}
	if hits[0].QueryStart != 0 || hits[0].QueryEnd != seq.Len() {
		t.Fatalf("self hit bounds [%d,%d)", hits[0].QueryStart, hits[0].QueryEnd)
	}
	if hits[0].EValue > 1e-3 {
		t.Fatalf("self hit EValue = %g, implausibly high", hits[0].EValue)
	}
}

func TestNoHitForUnrelated(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	alpha := []byte("ARNDCQEGHILKMFPSTWYV")
	random := func(n int) []byte {
		out := make([]byte, n)
		for i := range out {
			out[i] = alpha[rng.Intn(len(alpha))]
		}
		return out
	}
	db, err := BuildDB([]Sequence{{ID: "noise", Residues: random(200)}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	hits, err := Search(db, Sequence{ID: "q", Residues: random(200)}, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hits {
		if h.Score >= 60 {
			t.Fatalf("random pair scored %d — scoring is broken", h.Score)
		}
	}
}

func TestGappedExtensionBeatsUngappedAcrossIndel(t *testing.T) {
	// Subject = query with a 2-residue insertion in the middle. Ungapped
	// extension stops at the indel; gapped extension must bridge it.
	q := []byte("MKVLATGHWYEDRNCQISPFMKVLATGHWYEDRNCQISPF")
	s := append([]byte{}, q[:20]...)
	s = append(s, 'G', 'G')
	s = append(s, q[20:]...)
	db, err := BuildDB([]Sequence{{ID: "indel", Residues: s}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	hits, err := Search(db, Sequence{ID: "q", Residues: q}, Params{MinReportScore: 1, MinUngappedScore: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("no hit across indel")
	}
	h := hits[0]
	if !h.Gapped {
		t.Fatalf("best hit not gapped: %+v", h)
	}
	// Half the sequence aligned ungapped scores ~half the full self score;
	// the gapped score must beat any single ungapped half.
	half := 0
	for _, r := range q[:20] {
		half += ScoreBytes(r, r)
	}
	if h.Score <= half {
		t.Fatalf("gapped score %d did not bridge the indel (half = %d)", h.Score, half)
	}
}

func TestSearchWordSizeMismatch(t *testing.T) {
	db, _ := BuildDB([]Sequence{{ID: "s", Residues: []byte("MKVLATGH")}}, 4)
	if _, err := Search(db, Sequence{ID: "q", Residues: []byte("MKVLATGH")}, Params{K: 3}); err == nil {
		t.Fatal("word-size mismatch accepted")
	}
}

func TestSearchShortQuery(t *testing.T) {
	db, _ := BuildDB([]Sequence{{ID: "s", Residues: []byte("MKVLATGH")}}, 3)
	if _, err := Search(db, Sequence{ID: "q", Residues: []byte("MK")}, Params{}); err == nil {
		t.Fatal("short query accepted")
	}
}

func TestLoadDBRoundTrip(t *testing.T) {
	orig, _ := BuildDB([]Sequence{
		{ID: "a", Residues: []byte("MKVLATGHWY")},
		{ID: "b", Residues: []byte("EDRNCQISPF")},
	}, 3)
	var buf bytes.Buffer
	if err := WriteFASTA(&buf, orig.seqs); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDB(&buf, 3)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumSequences() != 2 || loaded.residues != orig.residues {
		t.Fatalf("loaded db differs: %d seqs", loaded.NumSequences())
	}
	if _, err := LoadDB(strings.NewReader(""), 3); err == nil {
		t.Fatal("empty db accepted")
	}
}

func TestMaxHitsCap(t *testing.T) {
	// Many identical subjects: the cap must hold.
	var seqs []Sequence
	base := []byte("MKVLATGHWYEDRNCQISPF")
	for i := 0; i < 20; i++ {
		seqs = append(seqs, Sequence{ID: string(rune('a' + i)), Residues: base})
	}
	db, _ := BuildDB(seqs, 3)
	hits, err := Search(db, Sequence{ID: "q", Residues: base}, Params{MinReportScore: 1, MaxHits: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 5 {
		t.Fatalf("got %d hits, want capped 5", len(hits))
	}
}

// Property: a mutated copy of the query always scores at least as high as
// the best random background subject (homology detection works).
func TestHomologyDetectionProperty(t *testing.T) {
	alpha := []byte("ARNDCQEGHILKMFPSTWYV")
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := make([]byte, 150)
		for i := range q {
			q[i] = alpha[rng.Intn(len(alpha))]
		}
		homolog := append([]byte{}, q...)
		for i := 0; i < 15; i++ { // 10% substitutions
			homolog[rng.Intn(len(homolog))] = alpha[rng.Intn(len(alpha))]
		}
		seqs := []Sequence{{ID: "homolog", Residues: homolog}}
		for i := 0; i < 5; i++ {
			noise := make([]byte, 150)
			for j := range noise {
				noise[j] = alpha[rng.Intn(len(alpha))]
			}
			seqs = append(seqs, Sequence{ID: string(rune('a' + i)), Residues: noise})
		}
		db, err := BuildDB(seqs, 3)
		if err != nil {
			return false
		}
		hits, err := Search(db, Sequence{ID: "q", Residues: q}, Params{MinReportScore: 1})
		if err != nil {
			return false
		}
		return len(hits) > 0 && hits[0].SubjectID == "homolog"
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: hit scores are sorted descending and all clear the report
// threshold.
func TestHitOrderingProperty(t *testing.T) {
	alpha := []byte("ARNDCQEGHILKMFPSTWYV")
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var seqs []Sequence
		for i := 0; i < 8; i++ {
			n := 60 + rng.Intn(120)
			s := make([]byte, n)
			for j := range s {
				s[j] = alpha[rng.Intn(len(alpha))]
			}
			seqs = append(seqs, Sequence{ID: string(rune('a' + i)), Residues: s})
		}
		db, err := BuildDB(seqs, 3)
		if err != nil {
			return false
		}
		q := append([]byte{}, seqs[0].Residues...)
		hits, err := Search(db, Sequence{ID: "q", Residues: q}, Params{MinReportScore: 20})
		if err != nil {
			return false
		}
		for i, h := range hits {
			if h.Score < 20 {
				return false
			}
			if i > 0 && hits[i-1].Score < h.Score {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	alpha := []byte("ARNDCQEGHILKMFPSTWYV")
	random := func(n int) []byte {
		out := make([]byte, n)
		for i := range out {
			out[i] = alpha[rng.Intn(len(alpha))]
		}
		return out
	}
	var seqs []Sequence
	for i := 0; i < 200; i++ {
		seqs = append(seqs, Sequence{ID: string(rune(i)), Residues: random(300)})
	}
	db, _ := BuildDB(seqs, 3)
	q := Sequence{ID: "q", Residues: random(300)}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Search(db, q, DefaultParams()); err != nil {
			b.Fatal(err)
		}
	}
}
