#include "recorder/segment.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace akita
{
namespace recorder
{

namespace
{

/** Rounds @p n up to the next multiple of 8 (frame alignment). */
constexpr std::uint64_t
align8(std::uint64_t n)
{
    return (n + 7) & ~std::uint64_t{7};
}

std::string
errnoMsg(const std::string &what)
{
    return what + ": " + std::strerror(errno);
}

} // namespace

std::uint32_t
crc32(const void *data, std::size_t len, std::uint32_t seed)
{
    // Table generated on first use from the reflected IEEE polynomial;
    // self-contained so the recorder never depends on zlib.
    static const std::uint32_t *table = []() {
        static std::uint32_t t[256];
        for (std::uint32_t i = 0; i < 256; i++) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; k++)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    std::uint32_t crc = ~seed;
    const auto *p = static_cast<const std::uint8_t *>(data);
    for (std::size_t i = 0; i < len; i++)
        crc = table[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
    return ~crc;
}

std::vector<RecordView>
scanRegion(const std::uint8_t *data, std::size_t len, ScanStats *stats)
{
    ScanStats st;
    std::vector<RecordView> found;

    // Pass 1: hunt for CRC-valid frames on 8-byte boundaries. A frame
    // half-overwritten by the ring's write front fails its header or
    // payload CRC and is skipped byte-group by byte-group.
    std::uint64_t off = 0;
    while (off + sizeof(RecordHeader) <= len) {
        RecordHeader h;
        std::memcpy(&h, data + off, sizeof(h));
        if (h.magic != kRecordMagic ||
            crc32(&h, 32) != h.headerCrc ||
            off + sizeof(h) + h.payloadLen > len) {
            off += 8;
            st.bytesSkipped += 8;
            continue;
        }
        const std::uint8_t *payload = data + off + sizeof(h);
        if (crc32(payload, h.payloadLen) != h.payloadCrc) {
            off += 8;
            st.bytesSkipped += 8;
            continue;
        }
        RecordView v;
        v.type = static_cast<RecordType>(h.type);
        v.seq = h.seq;
        v.wallMs = h.wallMs;
        v.payload = payload;
        v.payloadLen = h.payloadLen;
        v.offset = off;
        found.push_back(v);
        st.framesFound++;
        off = align8(off + sizeof(h) + h.payloadLen);
    }

    // Pass 2: the valid window is the maximal run of consecutive
    // sequence numbers ending at the newest record. Anything older is
    // a stale epoch partially clobbered by the wrap.
    std::sort(found.begin(), found.end(),
              [](const RecordView &a, const RecordView &b) {
                  return a.seq < b.seq;
              });
    std::size_t begin = found.size();
    for (std::size_t i = found.size(); i-- > 0;) {
        if (i + 1 < found.size() &&
            found[i].seq + 1 != found[i + 1].seq)
            break;
        begin = i;
    }
    st.staleDropped = begin;

    std::vector<RecordView> window;
    window.reserve(found.size() - begin);
    for (std::size_t i = begin; i < found.size(); i++) {
        if (found[i].type != RecordType::Pad)
            window.push_back(found[i]);
    }
    if (stats != nullptr)
        *stats = st;
    return window;
}

// ---- SegmentWriter ----

std::unique_ptr<SegmentWriter>
SegmentWriter::create(const std::string &path, std::size_t segment_bytes,
                      std::string *err)
{
    auto fail = [&](const std::string &msg) {
        if (err != nullptr)
            *err = msg;
        return nullptr;
    };

    // Floor: header page + room for a few thousand records.
    if (segment_bytes < kSegmentDataOffset + 64 * 1024)
        segment_bytes = kSegmentDataOffset + 64 * 1024;
    segment_bytes = align8(segment_bytes);

    int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        return fail(errnoMsg("open " + path));
    if (::ftruncate(fd, static_cast<off_t>(segment_bytes)) != 0) {
        std::string msg = errnoMsg("ftruncate " + path);
        ::close(fd);
        return fail(msg);
    }
    void *map = ::mmap(nullptr, segment_bytes, PROT_READ | PROT_WRITE,
                       MAP_SHARED, fd, 0);
    if (map == MAP_FAILED) {
        std::string msg = errnoMsg("mmap " + path);
        ::close(fd);
        return fail(msg);
    }

    auto w = std::unique_ptr<SegmentWriter>(new SegmentWriter());
    w->path_ = path;
    w->fd_ = fd;
    w->map_ = static_cast<std::uint8_t *>(map);
    w->segmentBytes_ = segment_bytes;
    w->dataBytes_ = segment_bytes - kSegmentDataOffset;

    SegmentHeader h;
    std::memset(static_cast<void *>(&h), 0, sizeof(h));
    h.magic = kSegmentMagic;
    h.version = kSegmentVersion;
    h.segmentBytes = segment_bytes;
    h.dataOffset = kSegmentDataOffset;
    h.dataBytes = w->dataBytes_;
    h.createdWallMs = 0; // Stamped by the owner via the Meta record.
    h.headerCrc = crc32(&h, 40);
    std::memcpy(w->map_, &h, sizeof(h));

    // The geometry must be durable before any record: a reader that
    // finds a valid header can always scan, whatever happened later.
    ::msync(w->map_, kSegmentDataOffset, MS_SYNC);
    return w;
}

SegmentWriter::~SegmentWriter()
{
    if (map_ != nullptr) {
        sync(/*durable=*/true);
        ::munmap(map_, segmentBytes_);
    }
    if (fd_ >= 0)
        ::close(fd_);
}

void
SegmentWriter::writeHeaderCursor()
{
    // Cursor lives outside the header CRC, so a crash mid-update can
    // not invalidate the header; readers treat it as a hint only.
    std::memcpy(map_ + offsetof(SegmentHeader, writeCursor), &cursor_,
                sizeof(cursor_));
}

bool
SegmentWriter::append(RecordType type, const void *payload,
                      std::size_t len, std::int64_t wall_ms)
{
    const std::uint64_t frame = align8(sizeof(RecordHeader) + len);
    if (frame > dataBytes_ / 2)
        return false; // Can never fit without eating its own tail.

    std::lock_guard<std::mutex> lk(mu_);
    std::uint64_t pos = cursor_ % dataBytes_;
    std::uint64_t remaining = dataBytes_ - pos;

    if (frame > remaining) {
        // Close out the lap. A Pad record keeps the sequence window
        // contiguous across the wrap; a tail too small for a frame
        // header is zero-filled and skipped by the scanner.
        if (remaining >= sizeof(RecordHeader)) {
            RecordHeader pad;
            std::memset(static_cast<void *>(&pad), 0, sizeof(pad));
            pad.magic = kRecordMagic;
            pad.type = static_cast<std::uint16_t>(RecordType::Pad);
            pad.payloadLen =
                static_cast<std::uint32_t>(remaining -
                                           sizeof(RecordHeader));
            pad.payloadCrc = crc32("", 0);
            std::memset(map_ + kSegmentDataOffset + pos +
                            sizeof(RecordHeader),
                        0, pad.payloadLen);
            pad.payloadCrc = crc32(map_ + kSegmentDataOffset + pos +
                                       sizeof(RecordHeader),
                                   pad.payloadLen);
            pad.seq = seq_++;
            pad.wallMs = wall_ms;
            pad.headerCrc = crc32(&pad, 32);
            std::memcpy(map_ + kSegmentDataOffset + pos, &pad,
                        sizeof(pad));
        } else {
            std::memset(map_ + kSegmentDataOffset + pos, 0, remaining);
        }
        cursor_ += remaining;
        pos = 0;
    }

    std::uint8_t *dst = map_ + kSegmentDataOffset + pos;
    RecordHeader h;
    // memset, not value-initialization: it also zeroes the 4 tail
    // padding bytes outside the CRC, which land on disk.
    std::memset(static_cast<void *>(&h), 0, sizeof(h));
    h.magic = kRecordMagic;
    h.type = static_cast<std::uint16_t>(type);
    h.payloadLen = static_cast<std::uint32_t>(len);
    h.payloadCrc = crc32(payload, len);
    h.seq = seq_++;
    h.wallMs = wall_ms;
    h.headerCrc = crc32(&h, 32);

    // Payload before header: until the valid header lands, the frame
    // is invisible to a scanner, so a crash mid-append costs at most
    // the record being appended.
    if (len > 0)
        std::memcpy(dst + sizeof(h), payload, len);
    // Zero the alignment tail so stale bytes of an overwritten older
    // record cannot masquerade as a frame marker mid-stream.
    std::memset(dst + sizeof(h) + len, 0,
                frame - sizeof(h) - len);
    std::memcpy(dst, &h, sizeof(h));

    cursor_ += frame;
    writeHeaderCursor();
    return true;
}

void
SegmentWriter::sync(bool durable)
{
    std::lock_guard<std::mutex> lk(mu_);
    ::msync(map_, segmentBytes_, durable ? MS_SYNC : MS_ASYNC);
}

std::uint64_t
SegmentWriter::cursor() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return cursor_;
}

std::uint64_t
SegmentWriter::nextSeq() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return seq_;
}

void
SegmentWriter::scan(
    const std::function<void(const std::vector<RecordView> &,
                             const ScanStats &)> &fn) const
{
    std::lock_guard<std::mutex> lk(mu_);
    ScanStats st;
    std::vector<RecordView> window =
        scanRegion(map_ + kSegmentDataOffset, dataBytes_, &st);
    fn(window, st);
}

// ---- SegmentReader ----

std::unique_ptr<SegmentReader>
SegmentReader::open(const std::string &path, std::string *err)
{
    auto fail = [&](const std::string &msg) {
        if (err != nullptr)
            *err = msg;
        return nullptr;
    };

    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return fail(errnoMsg("open " + path));
    struct stat stbuf;
    if (::fstat(fd, &stbuf) != 0) {
        std::string msg = errnoMsg("fstat " + path);
        ::close(fd);
        return fail(msg);
    }
    auto fileLen = static_cast<std::size_t>(stbuf.st_size);
    if (fileLen < sizeof(SegmentHeader)) {
        ::close(fd);
        return fail(path + ": too small to hold a segment header");
    }
    void *map = ::mmap(nullptr, fileLen, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd); // The mapping keeps the file alive.
    if (map == MAP_FAILED)
        return fail(errnoMsg("mmap " + path));

    auto r = std::unique_ptr<SegmentReader>(new SegmentReader());
    r->map_ = static_cast<std::uint8_t *>(map);
    r->mapLen_ = fileLen;
    std::memcpy(&r->header_, r->map_, sizeof(SegmentHeader));

    const SegmentHeader &h = r->header_;
    if (h.magic != kSegmentMagic)
        return fail(path + ": not a recorder segment (bad magic)");
    if (h.version != kSegmentVersion) {
        return fail(path + ": unsupported segment version " +
                    std::to_string(h.version));
    }
    if (crc32(&h, 40) != h.headerCrc)
        return fail(path + ": segment header CRC mismatch");
    if (h.dataOffset > fileLen)
        return fail(path + ": data offset beyond end of file");

    // A crash (or a copy taken mid-write) may have truncated the file
    // below the declared size; scan whatever bytes actually exist.
    std::size_t avail =
        std::min<std::uint64_t>(h.dataBytes, fileLen - h.dataOffset);
    r->records_ =
        scanRegion(r->map_ + h.dataOffset, avail, &r->stats_);
    return r;
}

SegmentReader::~SegmentReader()
{
    if (map_ != nullptr)
        ::munmap(map_, mapLen_);
}

std::int64_t
SegmentReader::firstWallMs() const
{
    return records_.empty() ? 0 : records_.front().wallMs;
}

std::int64_t
SegmentReader::lastWallMs() const
{
    return records_.empty() ? 0 : records_.back().wallMs;
}

} // namespace recorder
} // namespace akita
