package agent

// StuckRanks lists, in ascending order, the ranks that are neither
// healthy nor waiting in a recovery wave: a machine that is not Healthy
// must have a dead worker, whose lapsed lease puts it in the wave in
// flight or the next one. A live worker on a failed machine keeps
// heartbeating, so no wave would ever find it.
func (s *System) StuckRanks() []int {
	var stuck []int
	for rank, w := range s.workers {
		if w != nil && w.alive && !s.cluster.Machine(rank).Healthy() {
			stuck = append(stuck, rank)
		}
	}
	return stuck
}
