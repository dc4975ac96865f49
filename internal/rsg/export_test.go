package rsg

// internShardLen reports how many entries, live or dead, the intern
// shard that holds digest d has.
func internShardLen(d Digest) int {
	s := internShard(d)
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.tab)
}
