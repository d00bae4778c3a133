package main

func replayed(info *RecoveryInfo) int { return info.Replayed - info.ReplayErrors } // want
