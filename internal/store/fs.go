package store

import (
	"io/fs"
	"os"
)

// FS is the filesystem a Store runs on: exactly the operations the
// store performs, on full paths. OS is the production implementation; a
// fault layer can wrap it behind the same interface.
type FS interface {
	MkdirAll(dir string) error
	ReadDir(dir string) ([]fs.DirEntry, error)
	ReadFile(name string) ([]byte, error)
	Stat(name string) (fs.FileInfo, error)
	Create(name string) (File, error) // write-only, created or truncated
	Append(name string) (File, error) // write-only appending, created if missing
	Rename(oldname, newname string) error
	Remove(name string) error
	SyncDir(dir string) error // makes dir's creations, renames and removals durable
}

// File is a file a Store writes through an FS.
type File interface {
	Write(p []byte) (int, error)
	Truncate(size int64) error
	Sync() error
	Close() error
}

// OS is the operating system's filesystem, a Config's FS by default.
var OS FS = osFS{}

type osFS struct{}

func (osFS) MkdirAll(dir string) error                 { return os.MkdirAll(dir, 0o755) }
func (osFS) ReadDir(dir string) ([]fs.DirEntry, error) { return os.ReadDir(dir) }
func (osFS) ReadFile(name string) ([]byte, error)      { return os.ReadFile(name) }
func (osFS) Stat(name string) (fs.FileInfo, error)     { return os.Lstat(name) }
func (osFS) Rename(oldname, newname string) error      { return os.Rename(oldname, newname) }
func (osFS) Remove(name string) error                  { return os.Remove(name) }

func (osFS) Create(name string) (File, error) { return openFile(name, os.O_TRUNC) }
func (osFS) Append(name string) (File, error) { return openFile(name, os.O_APPEND) }

// openFile opens name write-only, created if missing; nil on error.
func openFile(name string, flag int) (File, error) {
	f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|flag, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close() // read-only: its Close reports nothing to keep
	return d.Sync()
}
