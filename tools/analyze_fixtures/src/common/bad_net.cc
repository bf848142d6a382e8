// Fixture for the unchecked-net rule: socket calls whose results
// are discarded at statement position.

#include <sys/socket.h>

void
leakyGoodbye(int fd, const void *buf, unsigned long len)
{
    send(fd, buf, len, 0);
    ::recv(fd, nullptr, len, 0);
    connect(fd, nullptr, 0);
    accept(fd, nullptr, nullptr);
    // fs-analyze: allow(unchecked-net) best-effort goodbye frame
    send(fd, buf, len, 0);
}
