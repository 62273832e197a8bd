package tsdb

// Annotations returns the annotation ring, oldest first. Nil-safe.
func (r *Recorder) Annotations() []Annotation { return r.Doc().Annotations }
