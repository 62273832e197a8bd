package tstamp

// Contains reports whether t belongs to epoch e's validity interval.
func Contains(e Epoch, t Timestamp) bool { return t.Epoch() == e }
