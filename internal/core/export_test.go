package core

// RetireLists reports how many per-epoch retirement lists the server holds
// (the external model test bounds it by retention + 2).
func (s *Server) RetireLists() int {
	s.retiring.mu.Lock()
	defer s.retiring.mu.Unlock()
	return len(s.retiring.lists)
}
