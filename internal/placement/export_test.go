package placement

// Overlaps reports whether the two ranges share any key.
func (r Range) Overlaps(o Range) bool {
	if r.Empty() || o.Empty() {
		return false
	}
	return (r.End == "" || o.Start < r.End) && (o.End == "" || r.Start < o.End)
}
