package matching

// DemandEveryRow makes every batch run ask for every γ row and every
// unmatched E1 entity's R3 pick, the reference the narrow demand must equal,
// until the returned restore is called.
func DemandEveryRow() (restore func()) {
	demandEveryRow = true
	return func() { demandEveryRow = false }
}
