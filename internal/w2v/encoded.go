package w2v

import (
	"errors"
	"fmt"
)

// Encoded is a pre-encoded corpus: token sequences over a caller-owned
// dense id space (the corpus interner's), plus that space's id → word and
// id → frequency tables. It is the integer-token handoff from the corpus
// builder — no string in the struct is ever re-hashed during training.
//
// Words must be distinct (an interner guarantees this); Counts[i] is the
// corpus frequency of id i and may be 0 for ids the interner knows from
// earlier builds but that do not appear in this corpus.
type Encoded struct {
	Sequences [][]int32
	Words     []string
	Counts    []int64
}

// TrainEncodedWithOptions trains a model from a pre-encoded corpus. It is
// the trainer's only entry: the vocabulary is derived from the frequency
// table and tokens are remapped caller-id → vocab-id through a flat
// permutation slice, so no word string is hashed. opts adds cancellation
// and warm start.
func TrainEncodedWithOptions(enc Encoded, cfg Config, opts TrainOptions) (*Model, error) {
	cfg = cfg.withDefaults()
	if len(enc.Words) != len(enc.Counts) {
		return nil, fmt.Errorf("w2v: encoded corpus has %d words but %d counts", len(enc.Words), len(enc.Counts))
	}
	vocab, perm := vocabFromCounts(enc.Words, enc.Counts, cfg.PadToken)
	if vocab.Size() == 0 {
		return nil, errors.New("w2v: empty vocabulary")
	}
	// Warm path: compose the previous generation's caller-id → old-row
	// permutation with this corpus's caller-id → new-row permutation into
	// a direct new-row → old-row mapping. No string is hashed; the ids are
	// stable because both generations interned through the same table.
	if ws := opts.Warm; ws != nil && ws.PrevPerm != nil {
		oldOf := make([]int32, vocab.Size())
		for i := range oldOf {
			oldOf[i] = -1
		}
		for callerID, newRow := range perm {
			if newRow >= 0 && callerID < len(ws.PrevPerm) {
				oldOf[newRow] = ws.PrevPerm[callerID]
			}
		}
		// The synthetic pad row has no caller id; carry it over by name
		// so an unchanged window stays a zero-delta (zero-epoch) retrain.
		if cfg.PadToken != "" && ws.Prev != nil && ws.Prev.Vocab != nil {
			if row, ok := vocab.ID(cfg.PadToken); ok && oldOf[row] < 0 {
				if old, ok := ws.Prev.Vocab.ID(cfg.PadToken); ok {
					oldOf[row] = old
				}
			}
		}
		opts.warmOldOf = oldOf
	}
	// Remap to vocabulary ids, dropping tokens the vocabulary dropped.
	seqs := make([][]int32, 0, len(enc.Sequences))
	var totalTokens int64
	for _, s := range enc.Sequences {
		ids := make([]int32, 0, len(s))
		for _, id := range s {
			if id < 0 || int(id) >= len(perm) {
				return nil, fmt.Errorf("w2v: token id %d outside the %d-entry table", id, len(perm))
			}
			if nid := perm[id]; nid >= 0 {
				ids = append(ids, nid)
			}
		}
		if len(ids) == 0 {
			continue
		}
		totalTokens += int64(len(ids))
		seqs = append(seqs, ids)
	}
	m, err := trainPrepared(vocab, seqs, totalTokens, cfg, opts)
	if err != nil {
		return nil, err
	}
	m.Perm = perm
	return m, nil
}
