package checkpoint

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// writeBytes is a WriteFile body that writes data in two chunks.
func writeBytes(data []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		if _, err := w.Write(data[:len(data)/2]); err != nil {
			return err
		}
		_, err := w.Write(data[len(data)/2:])
		return err
	}
}

// entries lists the names in dir.
func entries(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range des {
		names = append(names, de.Name())
	}
	return names
}

func TestWriteFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.json")
	for _, data := range [][]byte{[]byte("first version"), []byte("second, longer version of the file")} {
		if err := WriteFile(path, writeBytes(data)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("read back %q, want %q", got, data)
		}
		if names := entries(t, dir); len(names) != 1 || names[0] != "f.json" {
			t.Fatalf("directory holds %v, want only f.json", names)
		}
	}
}

func TestWriteFileFailedWriteLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.json")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := WriteFile(path, func(w io.Writer) error {
		w.Write([]byte("partial"))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the write's error", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "old" {
		t.Fatalf("failed write replaced the file: %q", got)
	}
	if names := entries(t, dir); len(names) != 1 {
		t.Fatalf("failed write left %v", names)
	}
}

func TestWriteFileFailedRenameLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	// A non-empty directory at the target path makes the rename fail.
	path := filepath.Join(dir, "f.json")
	if err := os.MkdirAll(filepath.Join(path, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, writeBytes([]byte("data"))); err == nil {
		t.Fatal("rename over a non-empty directory succeeded")
	}
	if names := entries(t, dir); len(names) != 1 || names[0] != "f.json" {
		t.Fatalf("failed rename left %v", names)
	}
}
