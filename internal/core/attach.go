package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"

	"godcr/internal/event"
	"godcr/internal/geom"
	"godcr/internal/instance"
	"godcr/internal/mapper"
	"godcr/internal/region"
)

// External side effects (paper §4.3): attach operations associate a
// file with a region's field, detach operations flush region contents
// back to a file. Under DCR they are sharded like any other operation:
// a whole-region attach is performed by one owner shard; a partition
// (group) attach shards the per-subregion files cyclically across
// shards for parallel I/O. All shards analyze the operation; only the
// owners touch the filesystem.
//
// The file format is raw little-endian float64s in row-major order
// over the attached rectangle.

// AttachFile loads a file into a region's field. The read is performed
// by shard 0; the data becomes the field's current version.
func (ctx *Context) AttachFile(r *region.Region, field, path string) {
	ctx.hashOp(hAttach)
	ctx.digest.Int(int(r.ID))
	ctx.digest.String(field)
	ctx.digest.String(path)
	fid := ctx.mustField(r, field)
	ctx.submit(&op{
		seq:  ctx.nextSeq(),
		kind: opAttach,
		attach: &attachState{
			region: r, root: r.Root, field: fid,
			paths: []string{path}, owner: 0,
			done: event.NewUserEvent(),
		},
	})
}

// DetachFile writes a region's field back to a file (performed by
// shard 0) and returns once the analysis is issued; the write
// completes by the next execution fence.
func (ctx *Context) DetachFile(r *region.Region, field, path string) {
	ctx.hashOp(hDetach)
	ctx.digest.Int(int(r.ID))
	ctx.digest.String(field)
	ctx.digest.String(path)
	fid := ctx.mustField(r, field)
	ctx.submit(&op{
		seq:  ctx.nextSeq(),
		kind: opDetach,
		attach: &attachState{
			region: r, root: r.Root, field: fid,
			paths: []string{path}, owner: 0,
			done: event.NewUserEvent(),
		},
	})
}

// AttachPartition is the group attach: one file per color of a
// disjoint partition, loaded in parallel by the colors' owner shards
// (cyclic assignment).
func (ctx *Context) AttachPartition(p *region.Partition, field string, paths []string) {
	if int64(len(paths)) != p.ColorSpace.Volume() {
		panic(fmt.Sprintf("core: %d paths for %d colors", len(paths), p.ColorSpace.Volume()))
	}
	ctx.hashOp(hAttach)
	ctx.digest.Int(int(p.ID))
	ctx.digest.String(field)
	for _, pa := range paths {
		ctx.digest.String(pa)
	}
	root := ctx.tree.Region(p.Root)
	fid := ctx.mustField(root, field)
	ctx.submit(&op{
		seq:  ctx.nextSeq(),
		kind: opAttach,
		attach: &attachState{
			part: p, root: p.Root, field: fid,
			paths: append([]string(nil), paths...),
			done:  event.NewUserEvent(),
		},
	})
}

// DetachPartition is the group detach: writes each color's subregion
// to its file in parallel.
func (ctx *Context) DetachPartition(p *region.Partition, field string, paths []string) {
	if int64(len(paths)) != p.ColorSpace.Volume() {
		panic(fmt.Sprintf("core: %d paths for %d colors", len(paths), p.ColorSpace.Volume()))
	}
	ctx.hashOp(hDetach)
	ctx.digest.Int(int(p.ID))
	ctx.digest.String(field)
	for _, pa := range paths {
		ctx.digest.String(pa)
	}
	root := ctx.tree.Region(p.Root)
	fid := ctx.mustField(root, field)
	ctx.submit(&op{
		seq:  ctx.nextSeq(),
		kind: opDetach,
		attach: &attachState{
			part: p, root: p.Root, field: fid,
			paths: append([]string(nil), paths...),
			done:  event.NewUserEvent(),
		},
	})
}

// attachPieces enumerates the (rect, point, owner, path) tuples of an
// attach/detach operation.
type attachPiece struct {
	rect  geom.Rect
	point geom.Point
	owner int
	path  string
}

func (fs *fineStage) attachPieces(a *attachState) []attachPiece {
	if a.part == nil {
		return []attachPiece{{
			rect: a.region.Bounds, point: geom.Pt1(0), owner: a.owner, path: a.paths[0],
		}}
	}
	var out []attachPiece
	i := 0
	a.part.ColorSpace.Each(func(c geom.Point) bool {
		sub := fs.ctx.tree.Subregion(a.part, c)
		owner := mapper.Cyclic.Shard(a.part.ColorSpace, c, fs.ctx.nShards)
		out = append(out, attachPiece{rect: sub.Bounds, point: c, owner: owner, path: a.paths[i]})
		i++
		return true
	})
	return out
}

func (fs *fineStage) handleAttach(o *op) {
	a := o.attach
	pieces := fs.attachPieces(a)
	if o.kind == opAttach {
		for _, pc := range pieces {
			fs.paintWrite(a.root, a.field, pc.rect, fineRec{seq: o.seq, point: pc.point, owner: pc.owner})
			if pc.owner != fs.ctx.shard {
				continue
			}
			pc := pc
			fs.exec.inflight.Add(1)
			go func() {
				defer fs.exec.inflight.Done()
				vals, err := ReadRegionFile(pc.path, pc.rect)
				inst := instance.New(pc.rect)
				if err != nil {
					fs.ctx.abort(fmt.Errorf("attach %q: %w", pc.path, err))
				} else {
					inst.Apply(pc.rect, vals)
				}
				fs.store.publish(verKey{Seq: o.seq, Point: pc.point, Root: a.root, Field: a.field}, inst)
			}()
		}
		return
	}
	// Detach: owners flush their pieces, whose remote sources share one
	// batch per owner like a launch's.
	var mine []attachPiece
	var sources [][]sourcePiece
	pulls := fs.fetch.gather()
	for _, pc := range pieces {
		if pc.owner != fs.ctx.shard {
			continue
		}
		srcs := fs.resolveRead(a.root, a.field, pc.rect)
		pulls.add(srcs)
		mine, sources = append(mine, pc), append(sources, srcs)
	}
	pulls.send()
	for i, pc := range mine {
		srcs := sources[i]
		fs.exec.inflight.Add(1)
		go func() {
			defer fs.exec.inflight.Done()
			inst := instance.New(pc.rect)
			if err := fs.exec.assemble(inst, srcs); err != nil {
				fs.ctx.abort(fmt.Errorf("detach %q: %w", pc.path, err))
				return
			}
			if err := WriteRegionFile(pc.path, pc.rect, inst.Data); err != nil {
				fs.ctx.abort(fmt.Errorf("detach %q: %w", pc.path, err))
			}
		}()
	}
}

// WriteRegionFile writes row-major float64 values for rect to path.
func WriteRegionFile(path string, rect geom.Rect, vals []float64) error {
	if int64(len(vals)) != rect.Volume() {
		return fmt.Errorf("core: %d values for rect %v", len(vals), rect)
	}
	buf := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	return os.WriteFile(path, buf, 0o644)
}

// ReadRegionFile reads row-major float64 values for rect from path.
func ReadRegionFile(path string, rect geom.Rect) ([]float64, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	want := rect.Volume() * 8
	if int64(len(buf)) != want {
		return nil, fmt.Errorf("core: file %q holds %d bytes, want %d for %v", path, len(buf), want, rect)
	}
	vals := make([]float64, rect.Volume())
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return vals, nil
}
