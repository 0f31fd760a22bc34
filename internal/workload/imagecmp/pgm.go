// Package imagecmp implements the light-source image-analysis workload of
// FRIEDA's evaluation: a self-contained 8-bit grayscale (PGM) codec and a
// set of image-similarity measures (MSE/PSNR, normalized cross-correlation,
// global SSIM, histogram intersection). Each task compares two large image
// files — the data-heavy, compute-light profile that makes data placement
// dominate performance in the paper's Figure 6a/7a.
package imagecmp

import (
	"bufio"
	"fmt"
	"io"
)

// Image is an 8-bit grayscale raster.
type Image struct {
	Width, Height int
	// Pix is row-major, len = Width*Height.
	Pix []uint8
}

// NewImage allocates a zeroed image.
func NewImage(w, h int) (*Image, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("imagecmp: invalid dimensions %dx%d", w, h)
	}
	return &Image{Width: w, Height: h, Pix: make([]uint8, w*h)}, nil
}

// At returns the pixel at (x, y).
func (im *Image) At(x, y int) uint8 { return im.Pix[y*im.Width+x] }

// Set writes the pixel at (x, y).
func (im *Image) Set(x, y int, v uint8) { im.Pix[y*im.Width+x] = v }

// WritePGM encodes the image as binary PGM (P5, maxval 255).
func WritePGM(w io.Writer, im *Image) error {
	if im.Width <= 0 || im.Height <= 0 || len(im.Pix) != im.Width*im.Height {
		return fmt.Errorf("imagecmp: inconsistent image %dx%d with %d pixels", im.Width, im.Height, len(im.Pix))
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "P5\n%d %d\n255\n", im.Width, im.Height)
	if _, err := bw.Write(im.Pix); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadPGM decodes a binary PGM (P5). Comments (# ...) in the header are
// supported; maxval must be 255.
func ReadPGM(r io.Reader) (*Image, error) {
	br := bufio.NewReader(r)
	magic, err := nextToken(br)
	if err != nil {
		return nil, err
	}
	if magic != "P5" {
		return nil, fmt.Errorf("imagecmp: not a binary PGM (magic %q)", magic)
	}
	var dims [3]int
	for i := range dims {
		tok, err := nextToken(br)
		if err != nil {
			return nil, err
		}
		if _, err := fmt.Sscanf(tok, "%d", &dims[i]); err != nil {
			return nil, fmt.Errorf("imagecmp: bad header token %q", tok)
		}
	}
	w, h, maxval := dims[0], dims[1], dims[2]
	if maxval != 255 {
		return nil, fmt.Errorf("imagecmp: unsupported maxval %d", maxval)
	}
	im, err := NewImage(w, h)
	if err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(br, im.Pix); err != nil {
		return nil, fmt.Errorf("imagecmp: truncated raster: %w", err)
	}
	return im, nil
}

// nextToken reads one whitespace-delimited header token, skipping comments.
// Exactly one byte of whitespace terminates the final token, per the PGM
// spec, so raster bytes are not consumed.
func nextToken(br *bufio.Reader) (string, error) {
	var tok []byte
	inComment := false
	for {
		b, err := br.ReadByte()
		if err != nil {
			if err == io.EOF && len(tok) > 0 {
				return string(tok), nil
			}
			return "", err
		}
		switch {
		case inComment:
			if b == '\n' {
				inComment = false
			}
		case b == '#':
			inComment = true
		case b == ' ' || b == '\t' || b == '\n' || b == '\r':
			if len(tok) > 0 {
				return string(tok), nil
			}
		default:
			tok = append(tok, b)
		}
	}
}
