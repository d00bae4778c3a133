package exec

import "grfusion/internal/storage"

func rows(t *storage.Table) *storage.TableSnap { // want
	return t.Snapshot(t.LiveVersion()) // want
}
