package kb

// TokenID is a dense identifier for a distinct token inside an Interner.
// IDs are assigned in first-intern order (not lexicographic); every stage
// that depends on deterministic ordering sorts by the token string, never by
// the numeric ID.
type TokenID uint32

// Interner is the shared token dictionary of the columnar substrate: it maps
// each distinct token string to a dense TokenID exactly once, so every later
// pipeline stage (Entity Frequency statistics, token blocking, valueSim
// accumulation) operates on integer IDs instead of re-hashing strings.
//
// One Interner can back several KBs: LoadPair builds both sides of a
// clean-clean ER pair over one (NewBuilderWithInterner does the same for
// hand-built KBs), and the blocking TokenIndex skips its token-space
// translation entirely. Interning is guarded by a mutex so two Builders may
// run concurrently; read accessors (TokenString) are lock-free and must not
// race with interning — in the pipeline all interning happens at KB build
// time, strictly before any resolution stage reads the dictionary.
type Interner struct{ t symtab }

// NewInterner returns an empty token dictionary.
func NewInterner() *Interner { return &Interner{t: newSymtab()} }

// Len returns the number of distinct tokens interned so far.
func (in *Interner) Len() int { return in.t.len() }

// Intern returns the ID of tok, assigning the next dense ID on first sight.
func (in *Interner) Intern(tok string) TokenID { return TokenID(in.t.intern(tok)) }

// Lookup returns the ID of tok if it has been interned.
func (in *Interner) Lookup(tok string) (TokenID, bool) {
	id, ok := in.t.lookup(tok)
	return TokenID(id), ok
}

// TokenString returns the string of an interned ID. It is lock-free (IDs are
// never reassigned); callers must not race it with interning.
func (in *Interner) TokenString(id TokenID) string { return in.t.str(uint32(id)) }
