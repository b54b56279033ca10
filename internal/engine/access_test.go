package engine

// LastErr returns the box's most recent step/apply error (nil when
// the last step succeeded cleanly).
func (e *Engine) LastErr(id string) error {
	sh := e.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if br := sh.boxes[id]; br != nil {
		return br.lastErr
	}
	return nil
}
