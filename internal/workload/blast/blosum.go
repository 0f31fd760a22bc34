// Package blast is a from-scratch protein local-alignment search tool in
// the spirit of BLASTP: k-mer seeding into a database index, ungapped
// X-drop extension, and banded gapped extension with affine penalties,
// scored with BLOSUM62.
//
// FRIEDA's evaluation uses BLAST as its compute-heavy workload: per-query
// cost scales with database size, per-task cost varies strongly with match
// structure (which is what makes real-time partitioning win), and the
// database must be resident on every node. This implementation reproduces
// all three properties with a real algorithm rather than a sleep().
package blast

import "fmt"

// Alphabet is the residue ordering used by the scoring matrix. X is the
// unknown residue.
const Alphabet = "ARNDCQEGHILKMFPSTWYVX"

// AlphabetSize counts distinct residues including X.
const AlphabetSize = len(Alphabet)

// residueIndex maps an ASCII residue (upper or lower case) to its alphabet
// index, or -1.
var residueIndex [256]int8

func init() {
	for i := range residueIndex {
		residueIndex[i] = -1
	}
	for i := 0; i < len(Alphabet); i++ {
		residueIndex[Alphabet[i]] = int8(i)
		residueIndex[Alphabet[i]+('a'-'A')] = int8(i)
	}
	// Common ambiguity codes collapse to near equivalents, as blastp does.
	residueIndex['B'], residueIndex['b'] = residueIndex['N'], residueIndex['N']
	residueIndex['Z'], residueIndex['z'] = residueIndex['Q'], residueIndex['Q']
	residueIndex['J'], residueIndex['j'] = residueIndex['L'], residueIndex['L']
	residueIndex['U'], residueIndex['u'] = residueIndex['C'], residueIndex['C']
	residueIndex['O'], residueIndex['o'] = residueIndex['K'], residueIndex['K']
}

// IndexOf returns the alphabet index for an ASCII residue, or -1 when the
// byte is not a residue code.
func IndexOf(r byte) int { return int(residueIndex[r]) }

// blosum62 is the standard BLOSUM62 substitution matrix over the 20
// canonical residues (alphabet order above, X handled separately).
var blosum62 = [20][20]int8{
	//        A   R   N   D   C   Q   E   G   H   I   L   K   M   F   P   S   T   W   Y   V
	/* A */ {4, -1, -2, -2, 0, -1, -1, 0, -2, -1, -1, -1, -1, -2, -1, 1, 0, -3, -2, 0},
	/* R */ {-1, 5, 0, -2, -3, 1, 0, -2, 0, -3, -2, 2, -1, -3, -2, -1, -1, -3, -2, -3},
	/* N */ {-2, 0, 6, 1, -3, 0, 0, 0, 1, -3, -3, 0, -2, -3, -2, 1, 0, -4, -2, -3},
	/* D */ {-2, -2, 1, 6, -3, 0, 2, -1, -1, -3, -4, -1, -3, -3, -1, 0, -1, -4, -3, -3},
	/* C */ {0, -3, -3, -3, 9, -3, -4, -3, -3, -1, -1, -3, -1, -2, -3, -1, -1, -2, -2, -1},
	/* Q */ {-1, 1, 0, 0, -3, 5, 2, -2, 0, -3, -2, 1, 0, -3, -1, 0, -1, -2, -1, -2},
	/* E */ {-1, 0, 0, 2, -4, 2, 5, -2, 0, -3, -3, 1, -2, -3, -1, 0, -1, -3, -2, -2},
	/* G */ {0, -2, 0, -1, -3, -2, -2, 6, -2, -4, -4, -2, -3, -3, -2, 0, -2, -2, -3, -3},
	/* H */ {-2, 0, 1, -1, -3, 0, 0, -2, 8, -3, -3, -1, -2, -1, -2, -1, -2, -2, 2, -3},
	/* I */ {-1, -3, -3, -3, -1, -3, -3, -4, -3, 4, 2, -3, 1, 0, -3, -2, -1, -3, -1, 3},
	/* L */ {-1, -2, -3, -4, -1, -2, -3, -4, -3, 2, 4, -2, 2, 0, -3, -2, -1, -2, -1, 1},
	/* K */ {-1, 2, 0, -1, -3, 1, 1, -2, -1, -3, -2, 5, -1, -3, -1, 0, -1, -3, -2, -2},
	/* M */ {-1, -1, -2, -3, -1, 0, -2, -3, -2, 1, 2, -1, 5, 0, -2, -1, -1, -1, -1, 1},
	/* F */ {-2, -3, -3, -3, -2, -3, -3, -3, -1, 0, 0, -3, 0, 6, -4, -2, -2, 1, 3, -1},
	/* P */ {-1, -2, -2, -1, -3, -1, -1, -2, -2, -3, -3, -1, -2, -4, 7, -1, -1, -4, -3, -2},
	/* S */ {1, -1, 1, 0, -1, 0, 0, 0, -1, -2, -2, 0, -1, -2, -1, 4, 1, -3, -2, -2},
	/* T */ {0, -1, 0, -1, -1, -1, -1, -2, -2, -1, -1, -1, -1, -2, -1, 1, 5, -2, -2, 0},
	/* W */ {-3, -3, -4, -4, -2, -2, -3, -2, -2, -3, -2, -3, -1, 1, -4, -3, -2, 11, 2, -3},
	/* Y */ {-2, -2, -2, -3, -2, -1, -2, -3, 2, -1, -1, -2, -1, 3, -3, -2, -2, 2, 7, -1},
	/* V */ {0, -3, -3, -3, -1, -2, -2, -3, -3, 3, 1, -2, 1, -1, -2, -2, 0, -3, -1, 4},
}

// xScore is the score for aligning anything against the unknown residue X.
const xScore = -1

// Score returns the BLOSUM62 substitution score for two alphabet indices.
func Score(a, b int) int {
	if a < 0 || b < 0 || a >= AlphabetSize || b >= AlphabetSize {
		panic(fmt.Sprintf("blast: residue index out of range: %d, %d", a, b))
	}
	if a == 20 || b == 20 { // X
		return xScore
	}
	return int(blosum62[a][b])
}

// ScoreBytes scores two ASCII residues, returning xScore for unknown codes.
func ScoreBytes(a, b byte) int {
	ia, ib := IndexOf(a), IndexOf(b)
	if ia < 0 || ib < 0 {
		return xScore
	}
	return Score(ia, ib)
}

// Encode maps an ASCII protein sequence to alphabet indices; unknown codes
// become X.
func Encode(seq []byte) []int8 {
	out := make([]int8, len(seq))
	for i, r := range seq {
		idx := residueIndex[r]
		if idx < 0 {
			idx = 20 // X
		}
		out[i] = idx
	}
	return out
}
