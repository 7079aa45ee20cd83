package serve

// InvalidateCache drops every cached response without swapping stores,
// so a benchmark can time each request as a cache miss.
func (s *Server) InvalidateCache() { s.cache.purge() }
