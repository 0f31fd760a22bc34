package blast

import (
	"fmt"
	"io"
)

// DB is a searchable protein database: the sequences plus a k-mer inverted
// index. In FRIEDA's evaluation the serialised form of this database is the
// "common file" that must reside on every worker node.
type DB struct {
	k     int
	seqs  []Sequence
	enc   [][]int8
	index map[uint32][]seedPos
	// residues is the total residue count, the effective database size m
	// in the paper's (n*m) comparison-cost discussion.
	residues int
}

// seedPos locates one k-mer occurrence.
type seedPos struct {
	seq int32
	off int32
}

// DefaultK is blastp's classic word size.
const DefaultK = 3

// BuildDB indexes the sequences with word size k (0 means DefaultK).
// Sequences shorter than k are stored but unindexed.
func BuildDB(seqs []Sequence, k int) (*DB, error) {
	if k == 0 {
		k = DefaultK
	}
	if k < 2 || k > 5 {
		return nil, fmt.Errorf("blast: word size %d outside [2,5]", k)
	}
	db := &DB{k: k, seqs: seqs, index: make(map[uint32][]seedPos)}
	db.enc = make([][]int8, len(seqs))
	for si, s := range seqs {
		if s.ID == "" {
			return nil, fmt.Errorf("blast: sequence %d has no ID", si)
		}
		enc := Encode(s.Residues)
		db.enc[si] = enc
		db.residues += len(enc)
		for off := 0; off+k <= len(enc); off++ {
			key, ok := kmerKey(enc[off:off+k], k)
			if !ok {
				continue // skip words containing X
			}
			db.index[key] = append(db.index[key], seedPos{seq: int32(si), off: int32(off)})
		}
	}
	return db, nil
}

// kmerKey packs k residue indices into a map key; words containing X are
// rejected (ok=false), as BLAST's seeding does.
func kmerKey(word []int8, k int) (uint32, bool) {
	var key uint32
	for i := 0; i < k; i++ {
		v := word[i]
		if v >= 20 || v < 0 {
			return 0, false
		}
		key = key*20 + uint32(v)
	}
	return key, true
}

// NumSequences returns the database record count.
func (db *DB) NumSequences() int { return len(db.seqs) }

// Sequence returns record i.
func (db *DB) Sequence(i int) Sequence { return db.seqs[i] }

// LoadDB parses FASTA from r and indexes it.
func LoadDB(r io.Reader, k int) (*DB, error) {
	seqs, err := ParseFASTA(r)
	if err != nil {
		return nil, err
	}
	if len(seqs) == 0 {
		return nil, fmt.Errorf("blast: empty database")
	}
	return BuildDB(seqs, k)
}
