package core

import (
	"fmt"
	"os"

	"repro/internal/snap"
)

// SnapshotFile is samples.snap taken apart, for tests that change one
// field and write the rest back with every CRC recomputed, so that only
// the check the change targets can refuse the file.
type SnapshotFile struct {
	Binding snap.Binding
	Cover   coverage
	State   []byte
}

// ReadSnapshotFile takes the snapshot at path apart under whatever
// binding it carries.
func ReadSnapshotFile(path string) (SnapshotFile, error) {
	var f SnapshotFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	f.Binding = snap.Validate(data, snap.Binding{}).Binding
	p := snap.Validate(data, f.Binding)
	if p.Stop != "" || len(p.Records) != 1 {
		return f, fmt.Errorf("%s: %d records, stopped at %q", path, len(p.Records), p.Stop)
	}
	cur := snap.NewCursor(p.Records[0].Payload)
	if f.Cover, err = decodeCoverage(cur); err != nil {
		return f, err
	}
	f.State, _ = cur.Bytes(cur.Remaining()) // the rest of the record: cannot fail
	return f, nil
}

// Write frames f back into a snapshot file at path.
func (f SnapshotFile) Write(path string) error {
	return snap.ReplaceFile(path, snap.Image(f.Binding, append(f.Cover.append(nil), f.State...)))
}
