package epoch

import "time"

// Duration returns the configured epoch duration.
func (m *Manager) Duration() time.Duration { return m.cfg.Duration }
