package checkpoint

import (
	"io"
	"os"
	"path/filepath"
)

// WriteFile replaces path with the bytes write produces, crash-safely:
// write fills a temporary sibling, which is fsynced, closed and renamed
// over path, and the parent directory is then fsynced so the rename
// itself survives a power cut. A reader sees either the old file or the
// complete new one. On any failure the temporary file is removed and
// path is left as it was (or, if only the directory sync failed, holds
// the new bytes without the durability guarantee).
func WriteFile(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	err = write(tmp)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory, making the entries renamed into it
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
