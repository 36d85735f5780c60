package server

import (
	"errors"
	"sort"
	"testing"

	"swarm/internal/disk"
	"swarm/internal/wire"
)

func TestACLCreateAllowed(t *testing.T) {
	db := NewACLDB()
	aid := db.Create([]wire.ClientID{1, 2})
	if !db.Allowed(aid, 1) || !db.Allowed(aid, 2) {
		t.Fatal("members denied")
	}
	if db.Allowed(aid, 3) {
		t.Fatal("non-member allowed")
	}
}

func TestACLZeroAIDIsOpen(t *testing.T) {
	db := NewACLDB()
	if !db.Allowed(0, 99) {
		t.Fatal("AID 0 should be unprotected")
	}
}

func TestACLUnknownAIDDenies(t *testing.T) {
	db := NewACLDB()
	if db.Allowed(42, 1) {
		t.Fatal("unknown AID allowed access")
	}
}

func TestACLModify(t *testing.T) {
	db := NewACLDB()
	aid := db.Create([]wire.ClientID{1})
	if err := db.Modify(aid, []wire.ClientID{2, 3}, []wire.ClientID{1}); err != nil {
		t.Fatal(err)
	}
	if db.Allowed(aid, 1) {
		t.Fatal("removed member still allowed")
	}
	if !db.Allowed(aid, 2) || !db.Allowed(aid, 3) {
		t.Fatal("added members denied")
	}
	if err := db.Modify(999, nil, nil); !errors.Is(err, ErrNoACL) {
		t.Fatalf("modify unknown ACL: %v", err)
	}
}

func TestACLDelete(t *testing.T) {
	db := NewACLDB()
	aid := db.Create([]wire.ClientID{1})
	if err := db.Delete(aid); err != nil {
		t.Fatal(err)
	}
	if db.Allowed(aid, 1) {
		t.Fatal("deleted ACL still allows access")
	}
	if err := db.Delete(aid); !errors.Is(err, ErrNoACL) {
		t.Fatalf("double delete: %v", err)
	}
}

func TestACLMembers(t *testing.T) {
	db := NewACLDB()
	aid := db.Create([]wire.ClientID{3, 1, 2})
	members, err := db.Members(aid)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	if len(members) != 3 || members[0] != 1 || members[2] != 3 {
		t.Fatalf("members = %v", members)
	}
	if _, err := db.Members(999); !errors.Is(err, ErrNoACL) {
		t.Fatalf("members of unknown ACL: %v", err)
	}
}

func TestACLDistinctAIDs(t *testing.T) {
	db := NewACLDB()
	a := db.Create(nil)
	b := db.Create(nil)
	if a == b {
		t.Fatal("duplicate AID assigned")
	}
}

// TestStoreEnforcesACLRanges exercises the store-level integration:
// protected byte ranges deny non-members while open ranges stay readable.
func TestStoreEnforcesACLRanges(t *testing.T) {
	fragSize := 4096
	d := disk.NewMemDisk(storeDiskBytes(fragSize, 8))
	s, err := Format(d, Config{FragmentSize: fragSize})
	if err != nil {
		t.Fatal(err)
	}
	aid := s.ACLs().Create([]wire.ClientID{1})
	fid := wire.MakeFID(1, 0)
	data := make([]byte, 1000)
	ranges := []wire.ACLRange{{Off: 0, Len: 500, AID: aid}}
	if err := s.Store(fid, data, false, ranges); err != nil {
		t.Fatal(err)
	}

	// Owner reads everywhere.
	if _, err := readCopy(s, 1, fid, 0, 1000); err != nil {
		t.Fatalf("owner read: %v", err)
	}
	// Stranger denied on the protected range…
	if _, err := readCopy(s, 2, fid, 0, 100); !errors.Is(err, ErrAccess) {
		t.Fatalf("stranger read protected: %v", err)
	}
	// …and on any overlap…
	if _, err := readCopy(s, 2, fid, 499, 2); !errors.Is(err, ErrAccess) {
		t.Fatalf("stranger read overlapping: %v", err)
	}
	// …but allowed on the unprotected tail.
	if _, err := readCopy(s, 2, fid, 500, 500); err != nil {
		t.Fatalf("stranger read open range: %v", err)
	}

	// Delete requires access to all protected ranges.
	if err := s.Delete(2, fid); !errors.Is(err, ErrAccess) {
		t.Fatalf("stranger delete: %v", err)
	}
	// Adding the stranger to the ACL grants access — "once the client has
	// been added to the appropriate ACLs, all data protected by those
	// ACLs will be accessible" (§2.3.2).
	if err := s.ACLs().Modify(aid, []wire.ClientID{2}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := readCopy(s, 2, fid, 0, 100); err != nil {
		t.Fatalf("new member read: %v", err)
	}
	if err := s.Delete(2, fid); err != nil {
		t.Fatalf("new member delete: %v", err)
	}
}

func TestACLsPersistAcrossReopen(t *testing.T) {
	fragSize := 4096
	d := disk.NewMemDisk(storeDiskBytes(fragSize, 8))
	s, err := Format(d, Config{FragmentSize: fragSize})
	if err != nil {
		t.Fatal(err)
	}
	aid := s.ACLs().Create([]wire.ClientID{1, 2})
	aid2 := s.ACLs().Create([]wire.ClientID{3})
	if err := s.ACLs().Modify(aid, []wire.ClientID{4}, []wire.ClientID{2}); err != nil {
		t.Fatal(err)
	}
	if err := s.ACLs().Delete(aid2); err != nil {
		t.Fatal(err)
	}
	fid := wire.MakeFID(1, 0)
	if err := s.Store(fid, make([]byte, 100), false, []wire.ACLRange{{Off: 0, Len: 100, AID: aid}}); err != nil {
		t.Fatal(err)
	}

	// Server restart: the whole protection state must survive.
	s2, err := Open(d)
	if err != nil {
		t.Fatal(err)
	}
	if !s2.ACLs().Allowed(aid, 1) || !s2.ACLs().Allowed(aid, 4) {
		t.Fatal("members lost across restart")
	}
	if s2.ACLs().Allowed(aid, 2) {
		t.Fatal("removed member resurrected")
	}
	if s2.ACLs().Allowed(aid2, 3) {
		t.Fatal("deleted ACL resurrected")
	}
	if _, err := readCopy(s2, 2, fid, 0, 10); !errors.Is(err, ErrAccess) {
		t.Fatalf("stranger read after restart: %v", err)
	}
	if _, err := readCopy(s2, 1, fid, 0, 10); err != nil {
		t.Fatalf("member read after restart: %v", err)
	}
	// AIDs are never reused, even across restarts.
	if next := s2.ACLs().Create(nil); next <= aid2 {
		t.Fatalf("AID %d reused after restart (existing up to %d)", next, aid2)
	}
}

func TestACLRegionTornWriteStartsEmpty(t *testing.T) {
	fragSize := 4096
	d := disk.NewMemDisk(storeDiskBytes(fragSize, 4))
	s, err := Format(d, Config{FragmentSize: fragSize})
	if err != nil {
		t.Fatal(err)
	}
	s.ACLs().Create([]wire.ClientID{1})
	// Corrupt the persisted image (valid magic, bad payload CRC).
	if err := d.WriteAt([]byte{0xFF, 0xFF}, superblockSize+14); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(d)
	if err != nil {
		t.Fatalf("open with torn ACL region: %v", err)
	}
	if s2.ACLs().Allowed(1, 1) {
		t.Fatal("corrupt ACL database partially loaded")
	}
}
