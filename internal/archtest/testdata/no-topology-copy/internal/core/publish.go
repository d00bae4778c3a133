package core

func (s *dbState) ensurePrivateG(name string) { // want
	s.sharedG[name] = false // want
}
