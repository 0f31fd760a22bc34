package imagecmp

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func randomImage(rng *rand.Rand, w, h int) *Image {
	im, err := NewImage(w, h)
	if err != nil {
		panic(err)
	}
	for i := range im.Pix {
		im.Pix[i] = uint8(rng.Intn(256))
	}
	return im
}

func TestNewImageValidation(t *testing.T) {
	if _, err := NewImage(0, 5); err == nil {
		t.Fatal("zero width accepted")
	}
	if _, err := NewImage(5, -1); err == nil {
		t.Fatal("negative height accepted")
	}
}

func TestPGMRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	im := randomImage(rng, 37, 21)
	var buf bytes.Buffer
	if err := WritePGM(&buf, im); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPGM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Width != 37 || got.Height != 21 {
		t.Fatalf("dims %dx%d", got.Width, got.Height)
	}
	if !bytes.Equal(got.Pix, im.Pix) {
		t.Fatal("pixels differ after round trip")
	}
}

func TestReadPGMWithComments(t *testing.T) {
	raw := "P5\n# a comment\n2 2\n# another\n255\n\x01\x02\x03\x04"
	im, err := ReadPGM(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if im.At(0, 0) != 1 || im.At(1, 1) != 4 {
		t.Fatalf("pixels = %v", im.Pix)
	}
}

func TestReadPGMErrors(t *testing.T) {
	cases := []string{
		"P2\n2 2\n255\n1 2 3 4",  // ASCII PGM unsupported
		"P5\n2 2\n65535\n\x00",   // 16-bit unsupported
		"P5\n2 2\n255\n\x01\x02", // truncated raster
		"P5\nx y\n255\n\x00\x00", // garbage dims
		"",                       // empty
	}
	for _, raw := range cases {
		if _, err := ReadPGM(strings.NewReader(raw)); err == nil {
			t.Errorf("accepted %q", raw)
		}
	}
}

func TestWritePGMRejectsInconsistent(t *testing.T) {
	im := &Image{Width: 4, Height: 4, Pix: make([]uint8, 3)}
	if err := WritePGM(&bytes.Buffer{}, im); err == nil {
		t.Fatal("inconsistent image accepted")
	}
}

func TestCompareIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	im := randomImage(rng, 64, 64)
	r, err := Compare(im, im)
	if err != nil {
		t.Fatal(err)
	}
	if r.MSE != 0 {
		t.Fatalf("MSE = %v", r.MSE)
	}
	if !math.IsInf(r.PSNR, 1) {
		t.Fatalf("PSNR = %v", r.PSNR)
	}
	if math.Abs(r.NCC-1) > 1e-12 {
		t.Fatalf("NCC = %v", r.NCC)
	}
	if r.SSIM < 0.999 {
		t.Fatalf("SSIM = %v", r.SSIM)
	}
	if r.HistIntersection != 1 {
		t.Fatalf("hist = %v", r.HistIntersection)
	}
	if !Similar(r, 0.9) {
		t.Fatal("identical images not similar")
	}
}

func TestCompareInverted(t *testing.T) {
	im, _ := NewImage(32, 32)
	inv, _ := NewImage(32, 32)
	rng := rand.New(rand.NewSource(3))
	for i := range im.Pix {
		im.Pix[i] = uint8(rng.Intn(256))
		inv.Pix[i] = 255 - im.Pix[i]
	}
	r, err := Compare(im, inv)
	if err != nil {
		t.Fatal(err)
	}
	if r.NCC > -0.99 {
		t.Fatalf("inverted NCC = %v, want ~-1", r.NCC)
	}
	if Similar(r, 0.5) {
		t.Fatal("inverted images judged similar")
	}
}

func TestCompareDimensionMismatch(t *testing.T) {
	a, _ := NewImage(4, 4)
	b, _ := NewImage(5, 4)
	if _, err := Compare(a, b); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestCompareFlatImages(t *testing.T) {
	a, _ := NewImage(8, 8)
	b, _ := NewImage(8, 8)
	for i := range a.Pix {
		a.Pix[i], b.Pix[i] = 100, 100
	}
	r, err := Compare(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if r.NCC != 1 {
		t.Fatalf("flat identical NCC = %v", r.NCC)
	}
}

func TestKnownMSE(t *testing.T) {
	a, _ := NewImage(2, 1)
	b, _ := NewImage(2, 1)
	a.Pix[0], a.Pix[1] = 10, 20
	b.Pix[0], b.Pix[1] = 13, 16
	r, err := Compare(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := (9.0 + 16.0) / 2
	if math.Abs(r.MSE-want) > 1e-12 {
		t.Fatalf("MSE = %v, want %v", r.MSE, want)
	}
	wantPSNR := 10 * math.Log10(255*255/want)
	if math.Abs(r.PSNR-wantPSNR) > 1e-9 {
		t.Fatalf("PSNR = %v, want %v", r.PSNR, wantPSNR)
	}
}

// Property: comparison is symmetric in its symmetric measures and all
// outputs stay within their documented ranges.
func TestCompareRangesProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomImage(rng, 16, 16)
		b := randomImage(rng, 16, 16)
		r1, err1 := Compare(a, b)
		r2, err2 := Compare(b, a)
		if err1 != nil || err2 != nil {
			return false
		}
		if math.Abs(r1.MSE-r2.MSE) > 1e-9 || math.Abs(r1.NCC-r2.NCC) > 1e-9 ||
			math.Abs(r1.SSIM-r2.SSIM) > 1e-9 || math.Abs(r1.HistIntersection-r2.HistIntersection) > 1e-9 {
			return false
		}
		return r1.NCC >= -1.0001 && r1.NCC <= 1.0001 &&
			r1.SSIM >= -1.0001 && r1.SSIM <= 1.0001 &&
			r1.HistIntersection >= 0 && r1.HistIntersection <= 1 &&
			r1.MSE >= 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: adding noise monotonically decreases PSNR versus a clean copy.
func TestNoiseDegradesPSNRProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := randomImage(rng, 24, 24)
		noisy1, _ := NewImage(24, 24)
		noisy2, _ := NewImage(24, 24)
		copy(noisy1.Pix, base.Pix)
		copy(noisy2.Pix, base.Pix)
		for i := range noisy1.Pix {
			noisy1.Pix[i] = uint8(math.Min(255, float64(noisy1.Pix[i])+float64(rng.Intn(8))))
			noisy2.Pix[i] = uint8(math.Min(255, float64(noisy2.Pix[i])+float64(rng.Intn(64))))
		}
		r1, _ := Compare(base, noisy1)
		r2, _ := Compare(base, noisy2)
		return r1.PSNR >= r2.PSNR
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCompare1MP(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randomImage(rng, 1024, 1024)
	y := randomImage(rng, 1024, 1024)
	b.SetBytes(int64(len(x.Pix) * 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compare(x, y); err != nil {
			b.Fatal(err)
		}
	}
}
