package lakehouse

import (
	"errors"
	"time"

	"streamlake/internal/colfile"
	"streamlake/internal/tableobj"
)

// Delete removes rows matching the filters (DELETE in Section V-B).
// Files whose every row matches are dropped by a metadata-only commit;
// partially matching files are read, filtered and rewritten, with the
// file I/O kept at the storage side (pushdown). It returns how many rows
// were deleted.
func (e *Engine) Delete(name string, filters []RangeFilter) (int64, time.Duration, error) {
	st, err := e.state(name)
	if err != nil {
		return 0, 0, err
	}
	// Deletes are barrier operations: fold the write cache first so the
	// commit sees every file.
	cost, err := e.Flush(name)
	if err != nil {
		return 0, cost, err
	}
	plan, pc, err := e.PlanScan(name, filters)
	cost += pc
	if err != nil {
		return 0, cost, err
	}
	x, err := st.tbl.Begin()
	if err != nil {
		return 0, cost, err
	}
	schema := st.tbl.Schema()
	fcols := filterColumns(schema, filters)
	var deleted int64
	var codec colfile.Codec // decodes every rewritten file of this delete
	for _, f := range plan.Files {
		if fileFullyCovered(schema, f, filters) {
			// Case 1: the whole file matches — metadata-only removal.
			x.RemoveFile(f)
			deleted += f.Rows
			continue
		}
		// Case 2: partial match — rewrite the survivors.
		blob, rc, err := e.fs.Read(f.Path)
		if err != nil {
			return deleted, cost, err
		}
		cost += rc
		r, err := codec.Open(blob)
		if err != nil {
			return deleted, cost, err
		}
		var keep []colfile.Row
		r.Scan(func(row colfile.Row) bool {
			if rowMatches(row, filters, fcols) {
				deleted++
			} else {
				keep = append(keep, append(colfile.Row(nil), row...))
			}
			return true
		})
		x.RemoveFile(f)
		if len(keep) > 0 {
			if _, err := x.WriteRows(keep); err != nil {
				return deleted, cost, err
			}
		}
	}
	_, err = x.Commit()
	for errors.Is(err, tableobj.ErrConflict) {
		_, err = x.Retry()
	}
	cost += x.Cost()
	if err == nil {
		e.invalidateManifests(name)
	}
	return deleted, cost, err
}

// fileFullyCovered reports whether every row of f is guaranteed to match
// the filters: each filter's bounds contain the file's whole value range
// for that column.
func fileFullyCovered(schema colfile.Schema, f tableobj.DataFile, filters []RangeFilter) bool {
	if len(filters) == 0 {
		return true
	}
	for _, flt := range filters {
		c := schema.FieldIndex(flt.Column)
		if c < 0 || c >= len(f.Min) {
			return false
		}
		if flt.Lo != nil && colfile.Compare(f.Min[c], *flt.Lo) < 0 {
			return false
		}
		if flt.Hi != nil && colfile.Compare(f.Max[c], *flt.Hi) > 0 {
			return false
		}
	}
	return true
}

// Update rewrites rows matching the filters through set (UPDATE in
// Section V-B), using the same select-then-rewrite path as Delete with
// pushdown on the file I/O. It returns how many rows were updated.
func (e *Engine) Update(name string, filters []RangeFilter, set func(colfile.Row) colfile.Row) (int64, time.Duration, error) {
	st, err := e.state(name)
	if err != nil {
		return 0, 0, err
	}
	cost, err := e.Flush(name)
	if err != nil {
		return 0, cost, err
	}
	plan, pc, err := e.PlanScan(name, filters)
	cost += pc
	if err != nil {
		return 0, cost, err
	}
	x, err := st.tbl.Begin()
	if err != nil {
		return 0, cost, err
	}
	schema := st.tbl.Schema()
	fcols := filterColumns(schema, filters)
	var updated int64
	var codec colfile.Codec // decodes every file of this update
	for _, f := range plan.Files {
		blob, rc, err := e.fs.Read(f.Path)
		if err != nil {
			return updated, cost, err
		}
		cost += rc
		r, err := codec.Open(blob)
		if err != nil {
			return updated, cost, err
		}
		var out []colfile.Row
		changed := false
		var scanErr error
		r.Scan(func(row colfile.Row) bool {
			row = append(colfile.Row(nil), row...)
			if rowMatches(row, filters, fcols) {
				row = set(row)
				if err := schema.Validate(row); err != nil {
					scanErr = err
					return false
				}
				updated++
				changed = true
			}
			out = append(out, row)
			return true
		})
		if scanErr != nil {
			return updated, cost, scanErr
		}
		if !changed {
			continue
		}
		x.RemoveFile(f)
		if _, err := x.WriteRows(out); err != nil {
			return updated, cost, err
		}
	}
	_, err = x.Commit()
	for errors.Is(err, tableobj.ErrConflict) {
		_, err = x.Retry()
	}
	cost += x.Cost()
	if err == nil {
		e.invalidateManifests(name)
	}
	return updated, cost, err
}

// DropSoft unregisters a table, retaining data for restoration. The
// engine's cached handle is evicted so subsequent operations fail with
// ErrTableDropped until a Restore.
func (e *Engine) DropSoft(name string) (time.Duration, error) {
	st, err := e.state(name)
	if err != nil {
		return 0, err
	}
	cost, err := e.Flush(name)
	if err != nil {
		return cost, err
	}
	c, err := st.tbl.DropSoft()
	if err == nil {
		e.mu.Lock()
		delete(e.tables, name)
		e.mu.Unlock()
	}
	return cost + c, err
}

// Restore re-registers a soft-dropped table.
func (e *Engine) Restore(name string) (time.Duration, error) {
	return e.cat.Restore(name)
}

// DropHard removes the table's data and metadata. Per the paper's note,
// metadata still sitting in the acceleration cache is cleared from the
// cache first, then the persistent files are deleted.
func (e *Engine) DropHard(name string) (time.Duration, error) {
	st, err := e.state(name)
	if err != nil {
		return 0, err
	}
	var cost time.Duration
	// (1) Clear the write cache.
	e.mu.Lock()
	st.pendingAdds = nil
	st.pendingRemoves = nil
	e.mu.Unlock()
	e.cache.Scan([]byte("wcache/"+name+"/"), []byte("wcache/"+name+"0"), func(k, v []byte) bool {
		c, _ := e.cache.Delete(k)
		cost += c
		return true
	})
	// (2) Delete from disk and the catalog.
	c, err := st.tbl.DropHard()
	cost += c
	if err != nil {
		return cost, err
	}
	e.mu.Lock()
	delete(e.tables, name)
	e.mu.Unlock()
	e.invalidateManifests(name)
	return cost, nil
}
