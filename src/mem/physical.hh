/**
 * @file
 * Simulated physical memory: a sparse store of page frames.
 *
 * Frames are allocated by monotonically increasing frame number and
 * their backing host buffers are materialized lazily on first byte
 * access, so large simulated footprints cost accounting only until
 * they are actually touched. Reads from untouched frames return zero,
 * matching anonymous-mmap semantics.
 */

#ifndef TMI_MEM_PHYSICAL_HH
#define TMI_MEM_PHYSICAL_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace tmi
{

/** Sparse, lazily materialized simulated physical memory. */
class PhysicalMemory
{
  public:
    /**
     * @param page_shift log2 of the frame size (12 for 4 KB frames,
     *                   21 for 2 MB huge frames).
     */
    explicit PhysicalMemory(unsigned page_shift);

    /** Frame size in bytes. */
    Addr pageBytes() const { return Addr{1} << _pageShift; }

    /** log2 of the frame size. */
    unsigned pageShift() const { return _pageShift; }

    /** Allocate a fresh zeroed frame and return its frame number. */
    PPage allocFrame();

    /**
     * Allocate a private copy-on-write copy of @p src.
     *
     * The new frame's contents equal src's current contents.
     */
    PPage allocCopy(PPage src);

    /** Release a frame; its number is not reused. */
    void freeFrame(PPage frame);

    /** Read @p size bytes starting at physical address @p paddr. */
    void read(Addr paddr, void *buf, std::size_t size) const;

    /** Write @p size bytes starting at physical address @p paddr. */
    void write(Addr paddr, const void *buf, std::size_t size);

    /**
     * Typed little-endian load of @p width (1..8) bytes at @p paddr,
     * zero-extended; the access must stay inside one frame. Reads of
     * a never-touched frame return 0.
     */
    std::uint64_t
    load(Addr paddr, unsigned width) const
    {
        const Frame &f = frameRefConst(paddr >> _pageShift);
        TMI_ASSERT(f.live);
        std::uint64_t v = 0;
        if (f.data)
            copyWidth(&v, f.data.get() + typedOffset(paddr, width), width);
        return v;
    }

    /** Typed little-endian store of the low @p width (1..8) bytes of
     *  @p value at @p paddr; the access must stay inside one frame. */
    void
    store(Addr paddr, std::uint64_t value, unsigned width)
    {
        Frame &f = frameRef(paddr >> _pageShift);
        TMI_ASSERT(f.live);
        std::uint8_t *data = f.data ? f.data.get() : materialize(f);
        copyWidth(data + typedOffset(paddr, width), &value, width);
    }

    /**
     * Borrow a frame's backing buffer, materializing it if needed.
     *
     * Used by the PTSB diff/merge path, which scans whole pages.
     */
    std::uint8_t *framePtr(PPage frame);

    /** Borrow a frame's buffer for reading; null if never touched. */
    const std::uint8_t *framePtrIfTouched(PPage frame) const;

    /** True if @p frame is currently allocated. */
    bool frameLive(PPage frame) const;

    /** Number of frames currently allocated (live). */
    std::uint64_t liveFrames() const { return _liveFrames; }

    /** Bytes of simulated memory currently allocated (live frames). */
    std::uint64_t liveBytes() const { return _liveFrames * pageBytes(); }

    /** High-water mark of live frames. */
    std::uint64_t peakFrames() const { return _peakFrames; }

    /** Register stats under @p group. */
    void regStats(stats::StatGroup &group);

  private:
    struct Frame
    {
        std::unique_ptr<std::uint8_t[]> data; //!< null until touched
        bool live = false;
    };

    Frame &
    frameRef(PPage frame)
    {
        TMI_ASSERT(frame < _frames.size());
        return _frames[frame];
    }

    const Frame &
    frameRefConst(PPage frame) const
    {
        TMI_ASSERT(frame < _frames.size());
        return _frames[frame];
    }

    std::uint8_t *materialize(Frame &f);

    /** Offset of a typed access in its frame; it may not cross it. */
    Addr
    typedOffset(Addr paddr, unsigned width) const
    {
        Addr off = paddr & (pageBytes() - 1);
        TMI_ASSERT(width >= 1 && width <= 8 &&
                   off + width <= pageBytes());
        return off;
    }

    /** memcpy with the common widths as compile-time sizes. Values
     *  live in host integers, so the simulated little-endian byte
     *  order needs a little-endian host. */
    static void
    copyWidth(void *dst, const void *src, unsigned width)
    {
        static_assert(std::endian::native == std::endian::little,
                      "typed physical access assumes a "
                      "little-endian host");
        switch (width) {
          case 8: std::memcpy(dst, src, 8); break;
          case 4: std::memcpy(dst, src, 4); break;
          case 2: std::memcpy(dst, src, 2); break;
          case 1: std::memcpy(dst, src, 1); break;
          default: std::memcpy(dst, src, width); break;
        }
    }

    unsigned _pageShift;
    std::vector<Frame> _frames;
    std::uint64_t _liveFrames = 0;
    std::uint64_t _peakFrames = 0;

    stats::Scalar _statFramesAllocated;
    stats::Scalar _statFramesCopied;
    stats::Scalar _statFramesFreed;
};

} // namespace tmi

#endif // TMI_MEM_PHYSICAL_HH
