package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"syscall"
)

// renameWatch counts files renamed into a directory. Checkpoint and
// journal writes end in a rename, so this counts completed writes from
// outside the program.
type renameWatch struct{ fd int }

func watchRenames(dir string) (*renameWatch, error) {
	fd, err := syscall.InotifyInit1(syscall.IN_NONBLOCK | syscall.IN_CLOEXEC)
	if err != nil {
		return nil, fmt.Errorf("inotify: %w", err)
	}
	// Watching creations too keeps successive renames to one name from
	// being merged into a single queued event.
	if _, err := syscall.InotifyAddWatch(fd, dir, syscall.IN_CREATE|syscall.IN_MOVED_TO); err != nil {
		syscall.Close(fd)
		return nil, fmt.Errorf("inotify %s: %w", dir, err)
	}
	return &renameWatch{fd: fd}, nil
}

// count drains the queued events and returns how many renamed a file
// whose name ends in suffix.
func (w *renameWatch) count(suffix string) (int, error) {
	buf := make([]byte, 64<<10)
	n := 0
	for {
		k, err := syscall.Read(w.fd, buf)
		if errors.Is(err, syscall.EAGAIN) {
			return n, nil
		}
		if err != nil {
			return n, fmt.Errorf("inotify read: %w", err)
		}
		for off := 0; off+syscall.SizeofInotifyEvent <= k; {
			mask := binary.NativeEndian.Uint32(buf[off+4:])
			nameLen := int(binary.NativeEndian.Uint32(buf[off+12:]))
			name := buf[off+syscall.SizeofInotifyEvent : off+syscall.SizeofInotifyEvent+nameLen]
			if mask&syscall.IN_MOVED_TO != 0 && strings.HasSuffix(string(bytes.TrimRight(name, "\x00")), suffix) {
				n++
			}
			off += syscall.SizeofInotifyEvent + nameLen
		}
	}
}

func (w *renameWatch) close() { syscall.Close(w.fd) }
